"""Tests for the serving front-end shared by ``ExtractionService`` and
``ServicePool`` (``repro.serve.service._Frontend``).

Both surfaces run one request core over the same replica, so the
invariants here hold on either: the cache objective samples every
replica lookup, both surfaces give the same answers, a gated reload
builds its candidate extractor once, and a pool replaces dead workers
without forking from a thread.
"""

import threading
import time
from collections import Counter
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

from repro.core import ScenarioExtractor
from repro.models import ModelConfig, build_model
from repro.obs.events import EventLog
from repro.obs.slo import SLOConfig
from repro.serve import (
    ExtractionService,
    FaultInjector,
    QualityConfig,
    ServiceClient,
    ServiceConfig,
    ServicePool,
)

CFG = ModelConfig(frames=4, dim=16, depth=1, num_heads=2)


@pytest.fixture(scope="module")
def model():
    return build_model("vt-divided", CFG)


@pytest.fixture(scope="module")
def extractor(model):
    return ScenarioExtractor(model)


@pytest.fixture(scope="module")
def clips():
    rng = np.random.default_rng(1)
    return rng.random((12, 4, 3, 32, 32)).astype(np.float32)


def _surface(workers, extractor, **kwargs):
    if workers == 1:
        return ExtractionService(extractor, **kwargs)
    return ServicePool(extractor, workers=workers, **kwargs)


class TestCacheObjective:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_sample_per_replica_lookup(self, workers, extractor,
                                           clips, tmp_path):
        # The first primary attempts fail on every replica, so some
        # lookups end degraded: they still count as cache misses.
        injector = FaultInjector(failure_rate=1.0, max_failures=2)
        config = ServiceConfig(max_batch=4, max_wait_s=0.005,
                               max_retries=0, backoff_s=0.0)
        surface = _surface(workers, extractor, config=config,
                           fault_injector=injector,
                           cache=str(tmp_path / "cache"),
                           slo=SLOConfig(cache_hit_floor=0.5))
        requests = list(clips[:8]) * 2
        with surface:
            results = ServiceClient(surface).extract_many(
                requests, concurrency=4, timeout=30.0)
            health = surface.health()
        statuses = Counter(r.status for r in results)
        assert statuses["degraded"] > 0
        assert set(statuses) <= {"ok", "degraded"}
        lookups = health["cache"]["hits"] + health["cache"]["misses"]
        assert lookups == len(requests)
        objective = health["slo"]["objectives"]["cache_hit_rate"]
        assert objective["samples"] == lookups
        assert objective["observed"] == pytest.approx(
            health["cache"]["hits"] / lookups)


#: case -> (fault injector kwargs, ServiceConfig knobs, repeats of one
#: clip).  "degraded": the first request exhausts its zero retries and
#: trips the breaker, so the second is served while it is open.
PARITY_CASES = {
    "miss": ({}, {}, 1),
    "cached": ({}, {}, 2),
    "retried": ({"failure_rate": 1.0, "max_failures": 1},
                {"max_retries": 2}, 1),
    "degraded": ({"failure_rate": 1.0},
                 {"max_retries": 0, "breaker_failures": 1,
                  "breaker_cooldown_s": 60.0}, 2),
}


class TestSurfaceParity:
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_service_and_one_worker_pool_agree(self, case, extractor,
                                               clips, tmp_path):
        faults, knobs, repeats = PARITY_CASES[case]
        config = ServiceConfig(max_batch=4, max_wait_s=0.0,
                               backoff_s=0.0, **knobs)
        outcomes = {}
        for workers in (None, 1):
            kwargs = dict(config=config,
                          fault_injector=FaultInjector(**faults),
                          cache=str(tmp_path / f"cache-{workers}"))
            surface = (ExtractionService(extractor, **kwargs)
                       if workers is None else
                       ServicePool(extractor, workers=workers, **kwargs))
            with surface:
                results = [surface.extract(clips[0], timeout=30.0)
                           for _ in range(repeats)]
            outcomes[workers] = [
                (r.status, r.cached, r.retries, r.batch_size,
                 r.model_version,
                 # Each replica builds its own randomly initialised
                 # fallback, so degraded answers only agree in kind.
                 r.result if r.status == "ok" else r.result is not None)
                for r in results]
        assert outcomes[None] == outcomes[1]
        expected = {"miss": [("ok", False, 0, 1)],
                    "cached": [("ok", False, 0, 1), ("ok", True, 0, 0)],
                    "retried": [("ok", False, 1, 1)],
                    "degraded": [("degraded", False, 0, 1)] * 2}[case]
        assert [o[:4] for o in outcomes[None]] == expected


class TestReloadCandidate:
    def test_gated_reload_clones_once(self, extractor, model, clips,
                                      monkeypatch):
        quality = QualityConfig(canary_sample=4, canary_min_samples=2,
                                canary_min_agreement=0.5, seed=0)
        service = ExtractionService(
            extractor, ServiceConfig(max_batch=4, max_wait_s=0.005),
            quality=quality)
        clones = []
        original = ScenarioExtractor.clone_with_model

        def counting(self, new_model):
            clones.append(new_model)
            return original(self, new_model)

        with service:
            ServiceClient(service).extract_many(list(clips[:8]),
                                                concurrency=4)
            assert service.quality.canary_ready
            monkeypatch.setattr(ScenarioExtractor, "clone_with_model",
                                counting)
            version = service.reload(model)  # identical weights
            health = service.health()
        assert version == 2
        assert health["quality"]["canary"]["accepted"] == 1
        assert clones == [model]
        # The canaried candidate is the extractor that now serves.
        assert service._primary.model is model


class TestRestartStorm:
    @staticmethod
    def _wait_for(predicate, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.05)
        return predicate()

    def test_same_rank_killed_twice_mid_burst(self, extractor, clips):
        events = EventLog(recorder_size=100_000)  # memory ring only
        config = ServiceConfig(max_batch=4, max_wait_s=0.005)
        futures = []
        stop = threading.Event()

        def restarts():
            return [r for r in events.read()
                    if r["event"] == "worker_restart"]

        with ServicePool(extractor, config, workers=2, events=events,
                         telemetry_interval_s=0.01) as pool:

            def burst():
                i = 0
                while not stop.is_set():
                    futures.append(pool.submit(clips[i % len(clips)],
                                               timeout=30.0))
                    i += 1
                    time.sleep(0.01)

            submitter = threading.Thread(target=burst)
            submitter.start()
            try:
                for attempt in (1, 2):
                    assert self._wait_for(pool.ready)
                    pool._procs[0].terminate()
                    assert self._wait_for(
                        lambda: len(restarts()) == attempt)
            finally:
                stop.set()
                submitter.join(10.0)
            assert not submitter.is_alive()
            assert self._wait_for(pool.ready)
            replacement = pool._procs[0]
            results = [f.result() for f in futures]
            counts = pool.status_counts()
        assert [(r["worker"], r["attempt"]) for r in restarts()] \
            == [(0, 1), (0, 2)]
        assert not isinstance(replacement, ForkProcess)
        assert len(results) == len(futures) > 0
        assert set(Counter(r.status for r in results)) \
            <= {"ok", "error", "shed"}
        assert sum(counts.values()) == len(futures)
        terminal = Counter(r["request_id"] for r in events.read()
                           if r["event"] == "result")
        assert sorted(terminal) == sorted(f.request_id for f in futures)
        assert set(terminal.values()) == {1}
