"""Tests for the fault-tolerant extraction service (``repro.serve``)."""

import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core import ScenarioExtractor
from repro.models import ModelConfig, build_model
from repro.obs import metrics
from repro.serve import (
    BATCH_SIZE_BUCKETS,
    ExtractionService,
    FaultInjector,
    InjectedFault,
    ServiceClient,
    ServiceConfig,
    TransientWorkerError,
)

CFG = ModelConfig(frames=4, dim=16, depth=1, num_heads=2)


def _result_key(extraction):
    """Comparable identity of an ExtractionResult (bit-level)."""
    return (extraction.sentence, extraction.description,
            tuple(sorted(extraction.confidences.items())),
            extraction.frame_range)


@pytest.fixture(scope="module")
def model():
    # vt-divided at this config is bitwise batch-size invariant, so
    # served results can be compared bit-for-bit against direct
    # extract_batch regardless of how the micro-batcher composed them.
    return build_model("vt-divided", CFG)


@pytest.fixture(scope="module")
def extractor(model):
    return ScenarioExtractor(model)


@pytest.fixture(scope="module")
def clips():
    rng = np.random.default_rng(0)
    return rng.random((24, 4, 3, 32, 32)).astype(np.float32)


@pytest.fixture(scope="module")
def direct(extractor, clips):
    return extractor.extract_batch(clips)


class TestMicroBatching:
    def test_served_results_bit_identical_to_direct(self, extractor,
                                                    clips, direct):
        config = ServiceConfig(max_batch=8, max_wait_s=0.02)
        with ExtractionService(extractor, config) as service:
            results = ServiceClient(service).extract_many(
                list(clips), concurrency=len(clips))
        assert [r.status for r in results] == ["ok"] * len(clips)
        for served, reference in zip(results, direct):
            assert _result_key(served.result) == _result_key(reference)

    def test_concurrent_burst_coalesces(self, extractor, clips):
        config = ServiceConfig(max_batch=8, max_wait_s=0.05)
        with ExtractionService(extractor, config) as service:
            results = ServiceClient(service).extract_many(
                list(clips), concurrency=len(clips))
        assert max(r.batch_size for r in results) > 1

    def test_flushes_partial_batch_on_deadline(self, extractor, clips):
        config = ServiceConfig(max_batch=64, max_wait_s=0.01)
        with ExtractionService(extractor, config) as service:
            result = service.extract(clips[0], timeout=5.0)
        assert result.status == "ok"
        assert result.batch_size == 1

    def test_batch_size_capped(self, extractor, clips):
        config = ServiceConfig(max_batch=4, max_wait_s=0.05)
        with ExtractionService(extractor, config) as service:
            results = ServiceClient(service).extract_many(
                list(clips), concurrency=len(clips))
        assert max(r.batch_size for r in results) <= 4

    def test_wrong_clip_shape_rejected_at_submit(self, extractor):
        with ExtractionService(extractor) as service:
            with pytest.raises(ValueError, match="shape"):
                service.submit(np.zeros((2, 3, 32, 32), dtype=np.float32))

    def test_submit_after_stop_raises(self, extractor, clips):
        service = ExtractionService(extractor).start()
        service.stop()
        with pytest.raises(RuntimeError, match="not running"):
            service.submit(clips[0])


class TestTimeouts:
    def test_deadline_expiry_resolves_timeout(self, extractor, clips):
        injector = FaultInjector(latency_s=0.3, latency_rate=1.0)
        service = ExtractionService(extractor, ServiceConfig(),
                                    fault_injector=injector)
        with service:
            result = service.extract(clips[0], timeout=0.02)
        assert result.status == "timeout"
        assert not result.ok
        assert result.result is None

    def test_queued_expired_requests_never_run(self, extractor, clips):
        # one spike occupies the worker; the queued request expires first
        injector = FaultInjector(latency_s=0.2, latency_rate=1.0)
        config = ServiceConfig(max_batch=1, max_wait_s=0.0)
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        with service:
            blocker = service.submit(clips[0], timeout=5.0)
            time.sleep(0.01)  # let the worker pick up the blocker
            doomed = service.submit(clips[1], timeout=0.05)
            assert doomed.result().status == "timeout"
            assert blocker.result().status == "ok"


class TestRetries:
    def test_transient_failures_retried_to_success(self, extractor,
                                                   clips):
        injector = FaultInjector(failure_rate=1.0, max_failures=2)
        config = ServiceConfig(max_retries=3, backoff_s=0.001)
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        with service:
            result = service.extract(clips[0], timeout=5.0)
        assert result.status == "ok"
        assert result.retries == 2
        assert _result_key(result.result) \
            == _result_key(extractor.extract(clips[0]))
        assert injector.failures_injected == 2

    def test_injected_fault_is_transient(self):
        assert issubclass(InjectedFault, TransientWorkerError)

    def test_retry_backoff_bounded(self, extractor, clips):
        injector = FaultInjector(failure_rate=1.0, max_failures=1)
        config = ServiceConfig(max_retries=1, backoff_s=0.001)
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        with service:
            start = time.perf_counter()
            result = service.extract(clips[0], timeout=5.0)
            elapsed = time.perf_counter() - start
        assert result.status == "ok"
        assert elapsed < 1.0


class TestShedding:
    def test_overload_sheds_explicitly(self, extractor, clips):
        injector = FaultInjector(latency_s=0.05, latency_rate=1.0)
        config = ServiceConfig(max_batch=2, max_queue=3, max_wait_s=0.0)
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        with service:
            futures = [service.submit(clip, timeout=5.0)
                       for clip in clips[:12]]
            results = [f.result() for f in futures]
        statuses = Counter(r.status for r in results)
        assert statuses["shed"] > 0
        assert set(statuses) <= {"ok", "shed"}
        shed = next(r for r in results if r.status == "shed")
        assert "queue full" in shed.error

    def test_shed_never_queued(self, extractor, clips):
        injector = FaultInjector(latency_s=0.05, latency_rate=1.0)
        config = ServiceConfig(max_batch=1, max_queue=1, max_wait_s=0.0)
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        with service:
            futures = [service.submit(clip, timeout=5.0)
                       for clip in clips[:6]]
            shed = [f for f in futures if f.done()
                    and f.result().status == "shed"]
            assert shed, "expected immediate shed responses"
            [f.result() for f in futures]


class TestCircuitBreaker:
    def test_persistent_failure_degrades_flagged(self, extractor, clips):
        injector = FaultInjector(failure_rate=1.0)
        config = ServiceConfig(max_retries=1, breaker_failures=2,
                               backoff_s=0.0)
        fallback_ex = None
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        fallback_ex = service._fallback
        with service:
            results = [service.extract(clip, timeout=5.0)
                       for clip in clips[:4]]
        assert all(r.status == "degraded" for r in results)
        assert all(r.degraded and r.ok for r in results)
        assert service.breaker.state == "open"
        # degraded results come from the fallback model: the sequential
        # calls above each formed a batch of one, so per-clip extract is
        # the bit-identical reference
        for served, clip in zip(results, clips[:4]):
            assert _result_key(served.result) \
                == _result_key(fallback_ex.extract(clip))

    def test_breaker_recovers_after_cooldown(self, extractor, clips):
        injector = FaultInjector(failure_rate=1.0)
        config = ServiceConfig(max_retries=0, breaker_failures=1,
                               backoff_s=0.0, breaker_cooldown_s=0.05)
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        with service:
            first = service.extract(clips[0], timeout=5.0)
            assert first.status == "degraded"
            injector.disable()  # fault clears
            time.sleep(0.06)  # past the cooldown: half-open probe
            second = service.extract(clips[1], timeout=5.0)
        assert second.status == "ok"
        assert service.breaker.state == "closed"

    def test_latency_budget_trips_breaker(self, extractor, clips):
        injector = FaultInjector(latency_s=0.03, latency_rate=1.0)
        config = ServiceConfig(max_batch=1, max_wait_s=0.0,
                               breaker_latency_budget_s=0.01,
                               breaker_min_samples=2,
                               breaker_cooldown_s=10.0)
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        with service:
            results = [service.extract(clip, timeout=5.0)
                       for clip in clips[:4]]
        assert service.breaker.state == "open"
        assert results[-1].status == "degraded"

    def test_health_reports_breaker(self, extractor, clips):
        injector = FaultInjector(failure_rate=1.0)
        config = ServiceConfig(max_retries=0, breaker_failures=1,
                               backoff_s=0.0, breaker_cooldown_s=60.0)
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        with service:
            service.extract(clips[0], timeout=5.0)
            health = service.health()
            assert health["status"] == "degraded"
            assert health["breaker"] == "open"
            assert health["requests"]["degraded"] == 1


class TestHotReload:
    def test_reload_swaps_atomically_no_drops(self, clips):
        model_a = build_model("vt-divided", CFG)
        model_b = build_model(
            "vt-divided",
            ModelConfig(frames=4, dim=16, depth=1, num_heads=2, seed=9),
        )
        keys_a = [_result_key(r) for r in
                  ScenarioExtractor(model_a).extract_batch(clips)]
        keys_b = [_result_key(r) for r in
                  ScenarioExtractor(model_b).extract_batch(clips)]
        config = ServiceConfig(max_batch=4, max_wait_s=0.001)
        service = ExtractionService(ScenarioExtractor(model_a), config)
        out = {}
        with service:
            client = ServiceClient(service)

            def call(i):
                out[i] = client.extract(clips[i], timeout=5.0)

            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(len(clips))]
            for j, thread in enumerate(threads):
                thread.start()
                if j == len(clips) // 2:
                    version = service.reload(model_b)
            for thread in threads:
                thread.join()
        assert version == 2
        assert service.model_version == 2
        assert len(out) == len(clips)
        for i, result in out.items():
            assert result.status == "ok"
            key = _result_key(result.result)
            # every request is served wholly by one model, never mixed
            assert key in (keys_a[i], keys_b[i])
            if result.model_version == 2:
                assert key == keys_b[i]

    def test_reload_from_checkpoint_path(self, extractor, clips,
                                         tmp_path):
        model_b = build_model(
            "frame-mlp",
            ModelConfig(frames=4, dim=16, depth=1, num_heads=2, seed=5),
        )
        path = str(tmp_path / "reload.npz")
        model_b.save(path)
        expected = _result_key(
            ScenarioExtractor(model_b).extract(clips[0]))
        with ExtractionService(extractor) as service:
            service.reload(path)
            result = service.extract(clips[0], timeout=5.0)
        assert result.status == "ok"
        assert _result_key(result.result) == expected

    def test_reload_shape_change_rejected(self, extractor):
        other = build_model(
            "frame-mlp",
            ModelConfig(frames=8, dim=16, depth=1, num_heads=2),
        )
        service = ExtractionService(extractor)
        with pytest.raises(ValueError, match="clip shape"):
            service.reload(other)

    def test_reload_resets_breaker(self, extractor, clips, model):
        injector = FaultInjector(failure_rate=1.0)
        config = ServiceConfig(max_retries=0, breaker_failures=1,
                               backoff_s=0.0, breaker_cooldown_s=60.0)
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        with service:
            service.extract(clips[0], timeout=5.0)
            assert service.breaker.state == "open"
            injector.disable()
            service.reload(model)
            assert service.breaker.state == "closed"
            result = service.extract(clips[1], timeout=5.0)
        assert result.status == "ok"


class TestMetricsAndProbes:
    def test_every_request_accounted_in_metrics(self, extractor, clips):
        before = metrics.counter("serve.requests", status="ok").value
        with ExtractionService(extractor) as service:
            results = ServiceClient(service).extract_many(
                list(clips[:8]), concurrency=8)
        assert all(r.status == "ok" for r in results)
        after = metrics.counter("serve.requests", status="ok").value
        assert after - before == 8
        counts = service.status_counts()
        assert counts["ok"] == 8
        assert sum(counts.values()) == 8

    def test_batch_size_histogram_recorded(self, extractor, clips):
        hist = metrics.histogram("serve.batch_size",
                                 bounds=BATCH_SIZE_BUCKETS)
        before = hist.count
        config = ServiceConfig(max_batch=8, max_wait_s=0.05)
        with ExtractionService(extractor, config) as service:
            ServiceClient(service).extract_many(list(clips[:8]),
                                                concurrency=8)
        assert hist.count > before
        assert hist.max >= 2

    def test_ready_and_health_lifecycle(self, extractor):
        service = ExtractionService(extractor)
        assert not service.ready()
        assert service.health()["status"] == "stopped"
        service.start()
        assert service.ready()
        assert service.health()["status"] == "ok"
        service.stop()
        assert not service.ready()

    def test_client_probe_passthrough(self, extractor):
        with ExtractionService(extractor) as service:
            client = ServiceClient(service)
            assert client.ready()
            assert client.health()["status"] == "ok"


class TestFaultBurstAccounting:
    """The acceptance scenario: a 200-request concurrent burst under
    heavy fault injection completes with zero silent failures."""

    def test_200_request_burst_all_accounted(self, clips):
        model = build_model("vt-divided", CFG)
        extractor = ScenarioExtractor(model)
        direct_keys = [_result_key(r)
                       for r in extractor.extract_batch(clips)]
        injector = FaultInjector(failure_rate=0.3, latency_s=0.01,
                                 latency_rate=0.1, seed=42)
        config = ServiceConfig(max_batch=8, max_wait_s=0.002,
                               max_queue=32, max_retries=2,
                               backoff_s=0.001,
                               breaker_failures=3,
                               breaker_cooldown_s=0.02)
        service = ExtractionService(extractor, config,
                                    fault_injector=injector)
        n = 200
        requests = [clips[i % len(clips)] for i in range(n)]
        with service:
            client = ServiceClient(service)
            results = client.extract_many(requests, concurrency=16,
                                          timeout=5.0)
        assert len(results) == n, "every request must get a response"

        statuses = Counter(r.status for r in results)
        # zero silent failures: all statuses known, all accounted
        assert sum(statuses.values()) == n
        assert set(statuses) <= {"ok", "degraded", "shed", "timeout",
                                 "error"}
        assert statuses["error"] == 0
        assert statuses["ok"] > 0, "some requests must succeed"

        retried_ok = 0
        for i, result in enumerate(results):
            clip_index = i % len(clips)
            if result.status == "ok":
                # correct (possibly retried-then-correct) result,
                # bit-identical to direct extract_batch
                assert _result_key(result.result) \
                    == direct_keys[clip_index]
                if result.retries > 0:
                    retried_ok += 1
            elif result.status == "degraded":
                # flagged and still carries a usable fallback result
                assert result.degraded
                assert result.result is not None
            else:
                assert result.result is None
        assert retried_ok > 0, "fault rate 0.3 must exercise retries"

        # the service's own accounting agrees
        counts = service.status_counts()
        assert sum(counts.values()) == n
        for status in ("ok", "degraded", "shed", "timeout", "error"):
            assert counts[status] == statuses.get(status, 0)
