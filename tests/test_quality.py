"""Tests for model-quality observability (PR 6): drift math and the
streaming detector, per-version scorecards and
``quality_window`` cadence, latched drift alerts, the shadow-canary
reload gate, per-tag decode confidences through pipeline/cache/serve,
events-reader forward compatibility, the SLO confidence objective, and
the ``repro top`` quality panel."""

import json
import math
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.core import ScenarioExtractor
from repro.core.cache import (
    ExtractionCache,
    _record_to_result,
    _result_to_record,
)
from repro.core.pipeline import ExtractionResult
from repro.eval.calibration import reliability_bins
from repro.models import ModelConfig, build_model
from repro.obs import events as obs_events
from repro.obs.drift import (
    DriftConfig,
    DriftDetector,
    confidence_bin,
    kl_divergence,
    psi,
)
from repro.obs.events import EVENTS_FORMAT, EventLog, read_events
from repro.obs.quality import (
    CanaryRefusedError,
    QualityConfig,
    QualityMonitor,
)
from repro.obs.registry import get_registry
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.top import render, snapshot_from_events
from repro.sdl.codec import LabelCodec
from repro.sdl.description import ScenarioDescription
from repro.serve import (
    ExtractionService,
    FaultInjector,
    ServeResult,
    ServiceClient,
    ServiceConfig,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Telemetry off/zeroed and no active event log around every test."""
    obs.disable()
    obs.metrics.clear()
    obs_events.set_active(None)
    yield
    obs.disable()
    obs.metrics.clear()
    obs_events.set_active(None)


CFG = ModelConfig(frames=4, dim=16, depth=1, num_heads=2, seed=0)

DESC_A = ScenarioDescription("straight-road", "drive-straight",
                             frozenset({"car"}), frozenset({"leading"}))
DESC_B = ScenarioDescription("intersection", "stop",
                             frozenset({"pedestrian"}),
                             frozenset({"crossing"}))
CONF_A = {"scene": 0.9, "ego_action": 0.8, "actors": 0.7,
          "actor_actions": 0.6}
CONF_B = {"scene": 0.3, "ego_action": 0.2, "actors": 0.4,
          "actor_actions": 0.1}


def make_model(name="vt-divided", seed=0):
    return build_model(name, ModelConfig(frames=4, dim=16, depth=1,
                                         num_heads=2, seed=seed))


def make_clips(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, CFG.frames, CFG.channels, CFG.height,
                       CFG.width)).astype(np.float32)


def make_result(request_id, description, confidences, version=1,
                status="ok", cached=False):
    extraction = ExtractionResult(
        description=description, sentence=description.to_sentence(),
        confidences=dict(confidences), frame_range=(0, CFG.frames))
    return ServeResult(request_id=request_id, status=status,
                       result=extraction, model_version=version,
                       cached=cached)


def small_drift():
    return DriftConfig(reference_size=8, window_size=8, min_samples=4)


# ----------------------------------------------------------------------
# Drift math
# ----------------------------------------------------------------------
class TestDriftMath:
    def test_psi_known_value(self):
        # (0.8-0.5)ln(1.6) + (0.2-0.5)ln(0.4) = 0.4158883...
        expected = 0.3 * math.log(1.6) - 0.3 * math.log(0.4)
        assert psi([0.5, 0.5], [0.8, 0.2]) == pytest.approx(
            expected, rel=1e-9)

    def test_kl_known_value(self):
        # 0.5 ln(2) + 0.5 ln(2/3) nats
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            expected, rel=1e-9)

    def test_identical_distributions_are_exactly_zero(self):
        counts = [3.0, 5.0, 2.0]
        assert psi(counts, counts) == 0.0
        assert kl_divergence(counts, counts) == 0.0

    def test_counts_and_probabilities_agree(self):
        assert psi([5, 5], [8, 2]) == pytest.approx(
            psi([0.5, 0.5], [0.8, 0.2]), rel=1e-12)

    def test_psi_is_symmetric(self):
        assert psi([1, 3, 6], [4, 4, 2]) == pytest.approx(
            psi([4, 4, 2], [1, 3, 6]), rel=1e-12)

    def test_empty_bin_smoothing_keeps_scores_finite(self):
        score = psi([1.0, 0.0], [0.0, 1.0])
        assert math.isfinite(score)
        assert score > 0.25  # a total swap is a major shift

    def test_validation(self):
        with pytest.raises(ValueError):
            psi([-1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            psi([0.5, 0.5], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            kl_divergence([0.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            psi([], [])

    def test_confidence_bin_edges(self):
        assert confidence_bin(0.0, 10) == 0
        assert confidence_bin(0.05, 10) == 0
        assert confidence_bin(0.15, 10) == 1
        assert confidence_bin(0.95, 10) == 9
        assert confidence_bin(1.0, 10) == 9
        # out-of-range inputs clamp, never index out of bounds
        assert confidence_bin(-0.5, 10) == 0
        assert confidence_bin(1.5, 10) == 9
        # non-finite model output lands in a bin, never raises
        assert confidence_bin(math.nan, 10) == 0
        assert confidence_bin(-math.inf, 10) == 0
        assert confidence_bin(math.inf, 10) == 9
        with pytest.raises(ValueError):
            confidence_bin(0.5, 0)

    def test_confidence_bin_matches_reliability_bins(self):
        """Drift histograms and calibration bins use the same (low,
        high] convention — a confidence lands in the same bin index."""
        rng = np.random.default_rng(3)
        confidences = rng.random(200)
        batch = reliability_bins(confidences, np.ones(200, dtype=bool),
                                 n_bins=10)
        counts = np.zeros(10, dtype=int)
        for c in confidences:
            counts[confidence_bin(float(c), 10)] += 1
        assert counts.tolist() == [b["count"] for b in batch]


# ----------------------------------------------------------------------
# Streaming drift detector
# ----------------------------------------------------------------------
class TestDriftDetector:
    def _feed(self, detector, n, desc=DESC_A, conf=CONF_A):
        for _ in range(n):
            detector.observe(desc, conf)

    def test_warmup_and_min_sample_guards(self):
        detector = DriftDetector(LabelCodec().vocab, small_drift())
        self._feed(detector, 7)
        assert not detector.warmed_up
        assert detector.scores() is None
        assert detector.check() == (False, None)
        self._feed(detector, 1)  # reference pinned, window still empty
        assert detector.warmed_up
        assert detector.scores() is None
        self._feed(detector, 3)  # below min_samples
        assert detector.scores() is None
        self._feed(detector, 1)
        scores = detector.scores()
        assert scores is not None
        assert scores["window_samples"] == 4
        assert scores["reference_samples"] == 8

    def test_identical_stream_scores_zero(self):
        detector = DriftDetector(LabelCodec().vocab, small_drift())
        self._feed(detector, 16)
        drifting, scores = detector.check()
        assert not drifting
        assert scores["tag_psi_max"] == 0.0
        assert all(v == 0.0 for v in scores["tag_psi"].values())
        assert scores["confidence_psi"] == 0.0
        assert scores["confidence_kl"] == 0.0

    def test_sustained_shift_crosses_thresholds(self):
        detector = DriftDetector(LabelCodec().vocab, small_drift())
        self._feed(detector, 8, DESC_A, CONF_A)
        self._feed(detector, 8, DESC_B, CONF_B)
        drifting, scores = detector.check()
        assert drifting
        assert scores["tag_psi_max"] > detector.config.psi_threshold
        assert scores["confidence_psi"] > detector.config.psi_threshold

    def test_window_eviction_recovers(self):
        detector = DriftDetector(LabelCodec().vocab, small_drift())
        self._feed(detector, 8, DESC_A, CONF_A)
        self._feed(detector, 8, DESC_B, CONF_B)
        assert detector.check()[0]
        self._feed(detector, 8, DESC_A, CONF_A)  # B fully evicted
        drifting, scores = detector.check()
        assert not drifting
        assert scores["tag_psi_max"] == 0.0

    def test_pin_reference_restarts_warmup(self):
        detector = DriftDetector(LabelCodec().vocab, small_drift())
        self._feed(detector, 16, DESC_A, CONF_A)
        detector.pin_reference()
        assert not detector.warmed_up
        assert detector.scores() is None
        # the *new* traffic becomes the new yardstick: no false alert
        self._feed(detector, 12, DESC_B, CONF_B)
        drifting, scores = detector.check()
        assert not drifting
        assert scores["tag_psi_max"] == 0.0


# ----------------------------------------------------------------------
# Quality monitor: scorecards, windows, latched drift alerts
# ----------------------------------------------------------------------
class TestQualityMonitor:
    def _monitor(self, window=4, log=None):
        config = QualityConfig(window=window, drift=small_drift())
        return QualityMonitor(LabelCodec(), config,
                              events=log or EventLog(None))

    def _feed(self, monitor, n, desc=DESC_A, conf=CONF_A, version=1):
        for i in range(n):
            monitor.observe(make_result(i, desc, conf, version=version))

    def test_scorecards_and_window_cadence(self):
        log = EventLog(None)
        monitor = self._monitor(window=4, log=log)
        self._feed(monitor, 10)
        report = monitor.report()
        assert report["observed"] == 10
        assert report["windows"] == 2  # 10 // 4
        card = report["models"]["1"]
        assert card["requests"] == 10
        assert card["statuses"] == {"ok": 10}
        assert card["mean_confidence"]["scene"] == pytest.approx(0.9)
        assert card["tag_positive_rate"]["scene"]["straight-road"] == 1.0
        assert card["tag_positive_rate"]["scene"]["intersection"] == 0.0
        assert card["tag_positive_rate"]["actors"]["car"] == 1.0
        assert "ece" not in card  # no served result carries a label
        windows = [r for r in log.recent()
                   if r["event"] == "quality_window"]
        assert len(windows) == 2
        assert windows[0]["requests"] == 4
        assert windows[0]["model_version"] == 1
        assert windows[0]["mean_confidence"]["scene"] == \
            pytest.approx(0.9)
        assert obs.metrics.counter("quality.windows").value == 2

    def test_resultless_statuses_not_scored(self):
        monitor = self._monitor()
        monitor.observe(ServeResult(request_id=1, status="shed"))
        monitor.observe(ServeResult(request_id=2, status="timeout"))
        assert monitor.report()["observed"] == 0

    def test_versions_get_separate_scorecards(self):
        monitor = self._monitor()
        self._feed(monitor, 3, version=1)
        self._feed(monitor, 2, DESC_B, CONF_B, version=2)
        models = monitor.report()["models"]
        assert models["1"]["requests"] == 3
        assert models["2"]["requests"] == 2
        assert models["2"]["tag_positive_rate"]["scene"][
            "intersection"] == 1.0

    def test_drift_alert_latched_once_and_rearms(self):
        log = EventLog(None)
        monitor = self._monitor(window=64, log=log)

        def alert_events():
            return [r for r in log.recent()
                    if r["event"] == "drift_alert"]

        self._feed(monitor, 8, DESC_A, CONF_A)   # pins the reference
        self._feed(monitor, 16, DESC_B, CONF_B)  # sustained shift
        assert len(alert_events()) == 1, \
            "a sustained shift must fire exactly one alert"
        alert = alert_events()[0]
        assert alert["tag_psi_max"] > 0.25
        assert alert["model_version"] == 1
        self._feed(monitor, 8, DESC_A, CONF_A)   # back on-distribution
        assert monitor.report()["drift"]["active"] is False
        self._feed(monitor, 8, DESC_B, CONF_B)   # second shift
        assert len(alert_events()) == 2, "the latch must re-arm"
        assert len(monitor.alerts()) == 2
        assert obs.metrics.counter("drift.alerts").value == 2

    def test_on_reload_repins_reference(self):
        monitor = self._monitor(window=64)
        self._feed(monitor, 8, DESC_A, CONF_A)
        self._feed(monitor, 8, DESC_B, CONF_B)
        assert monitor.report()["drift"]["active"] is True
        monitor.on_reload(2)
        report = monitor.report()
        assert report["drift"]["active"] is False
        assert report["drift"]["scores"] is None  # warmup restarted

    def test_results_older_than_reload_skip_drift(self):
        log = EventLog(None)
        monitor = self._monitor(window=4, log=log)
        monitor.on_reload(2)
        self._feed(monitor, 4, version=1)  # late old-model batch
        assert monitor.drift._reference_n == 0
        assert monitor.report()["models"]["1"]["requests"] == 4
        windows = [r for r in log.recent()
                   if r["event"] == "quality_window"]
        # The monitor's current version never moves backwards.
        assert [w["model_version"] for w in windows] == [2]
        self._feed(monitor, 2, version=2)
        assert monitor.drift._reference_n == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QualityConfig(window=0)
        with pytest.raises(ValueError):
            QualityConfig(canary_min_samples=9, canary_sample=8)
        with pytest.raises(ValueError):
            QualityConfig(canary_min_agreement=1.5)
        with pytest.raises(ValueError):
            QualityConfig(canary_max_confidence_shift=0.0)


class TestNaNClip:
    """An all-NaN clip decodes ``ok`` with NaN confidences.  The monitor
    runs on the thread that resolves results (the batch thread of a
    service, the collector of a pool): raising there would leave every
    later request unresolved."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_nan_clip_does_not_wedge_serving(self, workers):
        from repro.serve.pool import ServicePool

        extractor = ScenarioExtractor(make_model("frame-mlp"))
        config = ServiceConfig(max_batch=4, max_wait_s=0.002)
        if workers:
            service = ServicePool(extractor, config, workers=workers,
                                  quality=QualityConfig())
        else:
            service = ExtractionService(extractor, config,
                                        quality=QualityConfig())
        clips = make_clips(3)
        with service:
            nan = service.submit(np.full_like(clips[0], np.nan)) \
                .result(timeout=30.0)
            after = [service.submit(clip).result(timeout=30.0)
                     for clip in clips]
        assert nan.status == "ok"
        assert math.isnan(nan.result.confidences["scene"])
        assert [r.status for r in after] == ["ok"] * 3
        card = service.quality.report()["models"]["1"]
        assert card["requests"] == 4
        assert card["confidence_histogram"]["scene"][0] >= 1

    def test_nan_clip_in_canary_slice_does_not_break_reload(self):
        # Regression: the canary's ECE rejected the NaN confidences of
        # a sampled NaN clip, so every later reload raised ValueError.
        service = ExtractionService(
            ScenarioExtractor(make_model()),
            ServiceConfig(max_batch=8, max_wait_s=0.01),
            quality=QualityConfig(canary_sample=8, canary_min_samples=4))
        clips = make_clips(4)
        with service:
            for clip in clips:
                service.submit(clip).result(timeout=30.0)
            service.submit(np.full_like(clips[0], np.nan)) \
                .result(timeout=30.0)
            try:
                service.reload(make_model(seed=3))
            except CanaryRefusedError as exc:
                verdict = exc.verdict
            else:
                verdict = service.quality.report()["canary"]["last_verdict"]
        assert verdict["samples"] == 5
        assert 0.0 <= verdict["candidate_ece_vs_serving"] <= 1.0


# ----------------------------------------------------------------------
# Shadow canary
# ----------------------------------------------------------------------
class TestCanary:
    def _monitor(self, log=None, floor=0.9):
        config = QualityConfig(drift=small_drift(), canary_sample=4,
                               canary_min_samples=2,
                               canary_min_agreement=floor, seed=0)
        return QualityMonitor(LabelCodec(), config,
                              events=log or EventLog(None))

    def test_reservoir_is_bounded_and_seeded(self):
        monitor = self._monitor()
        for clip in make_clips(10):
            monitor.sample_clip(clip)
        canary = monitor.report()["canary"]
        assert canary["sampled_clips"] == 4
        assert canary["clips_seen"] == 10
        assert monitor.canary_ready

    def test_unready_canary_raises(self):
        monitor = self._monitor()
        assert not monitor.canary_ready
        with pytest.raises(RuntimeError, match="sampled clips"):
            monitor.canary(ScenarioExtractor(make_model()),
                           ScenarioExtractor(make_model()))

    def test_identical_candidate_accepted(self):
        log = EventLog(None)
        monitor = self._monitor(log=log)
        for clip in make_clips(6):
            monitor.sample_clip(clip)
        extractor = ScenarioExtractor(make_model())
        verdict = monitor.canary(extractor, extractor,
                                 serving_version=3)
        assert verdict["accepted"] is True
        assert verdict["agreement"] == 1.0
        assert verdict["confidence_shift"] == 0.0
        assert verdict["reasons"] == []
        assert verdict["serving_version"] == 3
        events = [r["event"] for r in log.recent()]
        assert "canary_start" in events and "canary_verdict" in events
        assert obs.metrics.counter("canary.verdicts",
                                   outcome="accepted").value == 1

    def test_candidate_ece_is_the_offline_ece(self):
        # The verdict's ECE bins each head's (candidate confidence,
        # head agreed) pair with expected_calibration_error; the value
        # was recorded when a streaming copy of the bins computed it.
        monitor = self._monitor()
        for clip in make_clips(6):
            monitor.sample_clip(clip)
        verdict = monitor.canary(
            ScenarioExtractor(make_model("vt-divided")),
            ScenarioExtractor(make_model("frame-mlp", seed=7)))
        assert verdict["candidate_ece_vs_serving"] == pytest.approx(
            0.4021798921748996, abs=1e-12)

    def test_disagreeing_candidate_refused(self):
        monitor = self._monitor()
        for clip in make_clips(6):
            monitor.sample_clip(clip)
        serving = ScenarioExtractor(make_model("vt-divided"))
        candidate = ScenarioExtractor(make_model("frame-mlp", seed=7))
        verdict = monitor.canary(serving, candidate)
        assert verdict["accepted"] is False
        assert verdict["agreement"] < 0.9
        assert verdict["reasons"]
        canary = monitor.report()["canary"]
        assert canary["refused"] == 1
        assert canary["last_verdict"]["accepted"] is False
        assert obs.metrics.counter("canary.verdicts",
                                   outcome="refused").value == 1


    def test_nan_confidence_shift_refused_and_emitted_as_null(self):
        # A NaN clip in the slice makes the shift NaN, and ``NaN >
        # bound`` is False: the bound must still refuse, and the
        # verdict event must stay strict JSON.
        log = EventLog(None)
        config = QualityConfig(drift=small_drift(), canary_sample=4,
                               canary_min_samples=2,
                               canary_max_confidence_shift=0.5, seed=0)
        monitor = QualityMonitor(LabelCodec(), config, events=log)
        clips = make_clips(3)
        for clip in [*clips, np.full_like(clips[0], np.nan)]:
            monitor.sample_clip(clip)
        extractor = ScenarioExtractor(make_model())
        verdict = monitor.canary(extractor, extractor)
        assert verdict["agreement"] == 1.0
        assert verdict["confidence_shift"] is None
        assert verdict["accepted"] is False
        assert verdict["reasons"] == ["confidence shift is not finite"]
        record = [r for r in log.recent()
                  if r["event"] == "canary_verdict"][-1]
        assert '"confidence_shift": null' in json.dumps(record,
                                                        allow_nan=False)
        assert "confidence shift n/a" in str(CanaryRefusedError(verdict))


# ----------------------------------------------------------------------
# Service integration: canary-gated reload + quality in health()
# ----------------------------------------------------------------------
class TestCanaryGatedReload:
    def _service(self, tmp_path=None):
        quality = QualityConfig(window=8, drift=small_drift(),
                                canary_sample=4, canary_min_samples=2,
                                canary_min_agreement=0.9, seed=0)
        events = EventLog(str(tmp_path)) if tmp_path else None
        return ExtractionService(
            ScenarioExtractor(make_model()),
            ServiceConfig(max_batch=8, max_wait_s=0.01),
            events=events, quality=quality)

    def test_refused_reload_leaves_serving_model_untouched(self,
                                                           tmp_path):
        service = self._service(tmp_path)
        with service:
            results = ServiceClient(service).extract_many(
                list(make_clips(12)), concurrency=6)
            assert all(r.status == "ok" for r in results)
            version_before = service.model_version
            with pytest.raises(CanaryRefusedError) as exc:
                service.reload(make_model("frame-mlp", seed=7))
            assert service.model_version == version_before
            assert exc.value.verdict["accepted"] is False
            assert "agreement" in str(exc.value)
            health = service.health()
        assert obs.metrics.counter("serve.reloads_refused").value == 1
        quality = health["quality"]
        assert quality["canary"]["refused"] == 1
        assert quality["observed"] == 12
        verdicts = [r for r in obs_events.read_event_log(str(tmp_path))
                    if r["event"] == "canary_verdict"]
        assert len(verdicts) == 1 and verdicts[0]["accepted"] is False

    def test_agreeing_reload_accepted_and_reference_repinned(self):
        service = self._service()
        with service:
            ServiceClient(service).extract_many(
                list(make_clips(12)), concurrency=6)
            version = service.reload(make_model())  # identical weights
            assert version == service.model_version == 2
            health = service.health()
        quality = health["quality"]
        assert quality["canary"]["accepted"] == 1
        # accepted swap re-pins the drift reference (warmup restarts)
        assert quality["drift"]["scores"] is None

    def test_force_skips_the_gate(self):
        service = self._service()
        with service:
            ServiceClient(service).extract_many(
                list(make_clips(12)), concurrency=6)
            version = service.reload(make_model("frame-mlp", seed=7),
                                     force=True)
            assert version == 2
            health = service.health()
        assert health["quality"]["canary"]["starts"] == 0

    def test_old_model_result_stays_out_of_new_reference(self):
        # A batch already running on the old model resolves after the
        # reload re-pins the drift reference: its own scorecard counts
        # it, the new reference never sees it.
        service = ExtractionService(
            ScenarioExtractor(make_model()),
            ServiceConfig(max_batch=1, max_wait_s=0.0),
            fault_injector=FaultInjector(latency_s=0.4, latency_rate=1.0),
            quality=QualityConfig(window=8, drift=small_drift()))
        with service:
            future = service.submit(make_clips(1)[0], timeout=10.0)
            deadline = time.monotonic() + 5.0
            while (service.health()["inflight"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert service.reload(make_model(seed=3), force=True) == 2
            result = future.result()
        assert result.status == "ok" and result.model_version == 1
        monitor = service.quality
        assert monitor.report()["models"]["1"]["requests"] == 1
        assert monitor.drift._reference_n == 0

    def test_result_events_carry_mean_confidence(self, tmp_path):
        service = self._service(tmp_path)
        with service:
            ServiceClient(service).extract_many(
                list(make_clips(4)), concurrency=2)
        results = [r for r in obs_events.read_event_log(str(tmp_path))
                   if r["event"] == "result"]
        assert len(results) == 4
        assert all(0.0 <= r["mean_confidence"] <= 1.0 for r in results)


# ----------------------------------------------------------------------
# Per-tag decode confidences (pipeline → cache → serve)
# ----------------------------------------------------------------------
class TestTagConfidences:
    @pytest.fixture(scope="class")
    def extraction(self):
        extractor = ScenarioExtractor(make_model())
        return extractor, extractor.extract_batch(make_clips(2))

    def test_stamped_per_head_with_full_vocab(self, extraction):
        extractor, results = extraction
        vocab = extractor.codec.vocab
        for result in results:
            tags = result.tag_confidences
            assert set(tags) == {"scene", "ego_action", "actors",
                                 "actor_actions"}
            assert set(tags["scene"]) == set(vocab.scenes)
            assert set(tags["actors"]) == set(vocab.actor_types)
            for head in tags.values():
                assert all(0.0 <= v <= 1.0 for v in head.values())
            # categorical heads are softmax distributions
            assert sum(tags["scene"].values()) == pytest.approx(1.0)
            assert sum(tags["ego_action"].values()) == pytest.approx(1.0)
            # the per-head summary is consistent with the full decode
            assert result.confidences["scene"] == pytest.approx(
                max(tags["scene"].values()))

    def test_serve_result_property(self, extraction):
        _, results = extraction
        served = ServeResult(request_id=1, status="ok",
                             result=results[0])
        assert served.tag_confidences is results[0].tag_confidences
        assert ServeResult(request_id=2,
                           status="shed").tag_confidences == {}

    def test_cache_roundtrip_preserves_tag_confidences(self, extraction,
                                                       tmp_path):
        _, results = extraction
        cache = ExtractionCache(str(tmp_path))
        cache.put("k", results[0])
        reloaded = ExtractionCache(str(tmp_path)).get("k")
        assert reloaded.tag_confidences == results[0].tag_confidences

    def test_legacy_record_without_field_still_decodes(self, extraction):
        _, results = extraction
        record = _result_to_record("k", results[0])
        del record["tag_confidences"]  # a pre-PR-6 cache record
        legacy = _record_to_result(record)
        assert legacy.tag_confidences == {}
        assert legacy.description == results[0].description


# ----------------------------------------------------------------------
# Events reader forward compatibility
# ----------------------------------------------------------------------
class TestEventsForwardCompat:
    def _write_mixed_log(self, tmp_path):
        """A v1 log later appended to by a hypothetical v2 writer."""
        lines = [
            json.dumps({"schema": EVENTS_FORMAT, "event": "enqueue",
                        "request_id": 1, "trace_id": "t", "seq": 1,
                        "queue_depth": 0, "mono": 1.0}),
            json.dumps({"schema": "repro.events/v2",
                        "event": "quality_hologram", "seq": 2,
                        "mono": 1.1, "novel_field": {"deep": [1, 2]}}),
            json.dumps({"schema": EVENTS_FORMAT, "event": "result",
                        "request_id": 1, "trace_id": "t", "seq": 3,
                        "status": "ok", "latency_s": 0.1, "mono": 1.2}),
            json.dumps({"schema": "acme.metrics/v1", "event": "x"}),
            "{torn json",
            json.dumps({"schema": EVENTS_FORMAT, "seq": 9}),  # no event
        ]
        path = os.path.join(str(tmp_path), "events.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def test_future_schema_yielded_not_dropped(self, tmp_path):
        path = self._write_mixed_log(tmp_path)
        records = list(read_events(path))
        assert [r["event"] for r in records] == \
            ["enqueue", "quality_hologram", "result"]
        registry = get_registry()
        assert registry.counter("events.forward_compat").value == 1
        assert registry.counter("events.corrupt").value == 3

    def test_top_snapshot_survives_future_records(self, tmp_path):
        path = self._write_mixed_log(tmp_path)
        snap = snapshot_from_events(list(read_events(path)))
        assert snap["requests"]["statuses"] == {"ok": 1}
        assert snap["lifecycles"]["fully_joined"] is True
        assert snap["quality"]["windows"] == 0

    def test_cli_top_from_events_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        self._write_mixed_log(tmp_path)
        code = main(["top", "--from-events", str(tmp_path), "--json"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["requests"]["total"] == 1


# ----------------------------------------------------------------------
# SLO confidence objective
# ----------------------------------------------------------------------
class TestConfidenceObjective:
    def test_noop_without_floor(self):
        tracker = SLOTracker(SLOConfig())
        tracker.record_confidence(0.1, now=1.0)
        assert "confidence" not in tracker.report(now=2.0)["objectives"]

    def test_floor_breaches_counted(self):
        tracker = SLOTracker(SLOConfig(confidence_floor=0.5,
                                       confidence_target=0.9))
        for i in range(20):
            tracker.record_confidence(0.9 if i % 2 else 0.1,
                                      now=1.0 + i * 0.01)
        objective = tracker.report(now=2.0)["objectives"]["confidence"]
        assert objective["target"] == 0.9
        assert objective["observed"] == pytest.approx(0.5)

    def test_replay_from_result_events(self):
        base = {"schema": EVENTS_FORMAT, "trace_id": "t"}
        records = []
        for i in range(10):
            records.append(dict(base, event="enqueue", request_id=i,
                                seq=2 * i + 1, queue_depth=0,
                                mono=1.0 + i * 0.01))
            records.append(dict(base, event="result", request_id=i,
                                seq=2 * i + 2, status="ok",
                                latency_s=0.01, mono=1.0 + i * 0.01,
                                mean_confidence=0.2 if i < 8 else 0.95))
        snap = snapshot_from_events(
            records, slo_config=SLOConfig(confidence_floor=0.5))
        objective = snap["slo"]["objectives"]["confidence"]
        assert objective["observed"] == pytest.approx(0.2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(confidence_floor=1.5)
        with pytest.raises(ValueError):
            SLOConfig(confidence_target=0.0)


# ----------------------------------------------------------------------
# repro top quality panel
# ----------------------------------------------------------------------
def quality_events():
    """Hand-written quality lifecycle: two windows, one drift alert,
    one refused canary."""
    base = {"schema": EVENTS_FORMAT}
    mean_conf = {"scene": 0.9, "ego_action": 0.8, "actors": 0.7,
                 "actor_actions": 0.6}
    records = [
        {"event": "quality_window", "window": 1, "requests": 8,
         "mean_confidence": mean_conf, "model_version": 1},
        {"event": "quality_window", "window": 2, "requests": 8,
         "mean_confidence": mean_conf, "model_version": 1},
        {"event": "drift_alert", "tag_psi_max": 1.2,
         "confidence_psi": 2.5, "confidence_kl": 1.1,
         "model_version": 1},
        {"event": "canary_start", "samples": 4, "serving_version": 1},
        {"event": "canary_verdict", "accepted": False, "samples": 4,
         "agreement": 0.4, "confidence_shift": 0.2,
         "agreement_floor": 0.8},
    ]
    return [dict(base, seq=i + 1, mono=1.0 + i / 10.0, **r)
            for i, r in enumerate(records)]


class TestTopQualityPanel:
    def test_snapshot_from_events_accounts_quality(self):
        quality = snapshot_from_events(quality_events())["quality"]
        assert quality["windows"] == 2
        assert quality["last_window"]["requests"] == 8
        assert quality["drift_alerts"] == 1
        assert quality["last_drift"]["confidence_psi"] == 2.5
        assert quality["canary"] == {
            "starts": 1, "accepted": 0, "refused": 1,
            "last_verdict": {"accepted": False, "agreement": 0.4,
                             "confidence_shift": 0.2,
                             "agreement_floor": 0.8, "samples": 4}}

    def test_render_shows_quality_lines(self):
        text = render(snapshot_from_events(quality_events()))
        assert "quality" in text and "2 windows" in text
        assert "DRIFTING" in text
        assert "1 refused" in text
        assert "ALERT drift" in text

    def test_render_shows_missing_scores_as_na(self):
        # A log from another writer may omit a score; the panel
        # renders it as n/a rather than raising on ``None``.
        text = render(snapshot_from_events(
            [{"schema": "repro.events/v1", "event": "drift_alert"}]))
        assert "ALERT drift: tag PSI n/a, confidence PSI n/a, KL n/a" \
            in text
        text = render(snapshot_from_events(
            [{"schema": "repro.events/v1", "event": "quality_window",
              "mean_confidence": {"scene": None, "actors": 0.5}}]))
        assert "conf actors=0.50  scene=n/a" in text

    def test_render_omits_panel_when_inactive(self):
        base = {"schema": EVENTS_FORMAT}
        records = [dict(base, event="enqueue", request_id=1, seq=1,
                        queue_depth=0, mono=1.0),
                   dict(base, event="result", request_id=1, seq=2,
                        status="ok", latency_s=0.1, mono=1.1)]
        text = render(snapshot_from_events(records))
        assert "DRIFTING" not in text and "canary" not in text


# ----------------------------------------------------------------------
# CLI: serve --quality with injected shift and a degraded canary
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """Dataset, trained serving checkpoint, and a deliberately degraded
    (untrained, different-seed) canary checkpoint."""
    from repro.cli import main

    root = tmp_path_factory.mktemp("quality-cli")
    data = str(root / "data.npz")
    serving = str(root / "model.npz")
    degraded = str(root / "bad.npz")
    assert main(["generate", "--clips", "12", "--frames", "4",
                 "--out", data]) == 0
    assert main(["train", "--data", data, "--out", serving,
                 "--epochs", "1", "--model", "frame-mlp",
                 "--dim", "16", "--depth", "1", "--heads", "2"]) == 0
    build_model("frame-mlp", ModelConfig(frames=4, dim=16, depth=1,
                                         num_heads=2, seed=7)) \
        .save(degraded)
    return data, serving, degraded


class TestServeQualityCLI:
    def test_shift_fires_alert_and_canary_refuses(self, cli_artifacts,
                                                  tmp_path, capsys):
        from repro.cli import main

        data, serving, degraded = cli_artifacts
        events_dir = str(tmp_path / "events")
        code = main(["serve", "--data", data, "--checkpoint", serving,
                     "--requests", "48", "--concurrency", "8",
                     "--quality", "--quality-window", "8",
                     "--drift-reference", "12", "--drift-window", "12",
                     "--drift-min-samples", "6", "--shift-after", "24",
                     "--canary-checkpoint", degraded,
                     "--events-dir", events_dir,
                     "--json", "--allow-failures"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        quality = summary["quality"]
        assert quality["windows"] >= 4
        assert quality["drift_alerts"] >= 1
        canary = quality["canary"]
        assert canary["attempted"] is True
        assert canary["accepted"] is False
        assert canary["model_version_after"] == \
            canary["model_version_before"]
        assert canary["verdict"]["agreement"] < \
            canary["verdict"]["agreement_floor"]

        # the recorded event stream replays to the same picture
        code = main(["top", "--from-events", events_dir, "--json"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["quality"]["windows"] == quality["windows"]
        assert snap["quality"]["drift_alerts"] >= 1
        assert snap["quality"]["canary"]["refused"] == 1
        assert snap["lifecycles"]["fully_joined"] is True


# ----------------------------------------------------------------------
# Monitoring-disabled hot-path overhead guard
# ----------------------------------------------------------------------
class TestDisabledOverheadGuard:
    def test_tag_stamping_under_five_percent_of_extraction(self):
        """With ``quality=None`` the only always-on cost this PR adds
        to the extraction hot path is the per-tag confidence stamping
        (the head probabilities are shared with the summary decode).
        Pin it below 5% of ``extract_batch`` even on this micro model,
        where the forward pass is cheapest relative to decode."""
        import time

        extractor = ScenarioExtractor(make_model())
        clips = make_clips(32)
        logits = extractor.logits(clips)
        probs = extractor._head_probs(logits)
        extractor.extract_batch(clips)  # warm caches

        def best(f, n=5):
            times = []
            for _ in range(n):
                start = time.perf_counter()
                f()
                times.append(time.perf_counter() - start)
            return min(times)

        # A real regression is systematic, so it fails every attempt;
        # a scheduler hiccup won't survive three.
        ratios = []
        for _ in range(3):
            full = best(lambda: extractor.extract_batch(clips))
            stamp = best(lambda: extractor._tag_confidences(probs))
            ratios.append(stamp / full)
            if ratios[-1] <= 0.05:
                break
        assert min(ratios) <= 0.05, ratios


# ----------------------------------------------------------------------
# Prometheus exposition picks up the new series
# ----------------------------------------------------------------------
class TestQualityExposition:
    def test_quality_series_rendered(self):
        from repro.obs.exposition import render_prometheus

        monitor = QualityMonitor(
            LabelCodec(), QualityConfig(window=4, drift=small_drift()),
            events=EventLog(None))
        for i in range(8):
            monitor.observe(make_result(i, DESC_A, CONF_A))
        text = render_prometheus(obs.metrics)
        assert "quality_windows_total 2" in text
        assert 'quality_mean_confidence{head="scene"} 0.9' in text
        assert "drift_alerts_total 0" in text
