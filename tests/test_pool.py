"""Tests for the multi-worker sharded serving pool (``repro.serve.pool``).

The pool is a drop-in for :class:`ExtractionService`, so the behavioural
assertions here mirror ``tests/test_serve.py`` — bit-identical results,
explicit shed/timeout statuses, atomic hot reload, full accounting —
plus the pool-only guarantees: deterministic content-hash sharding,
shard-local cache coherence with zero cross-worker writes, and in-place
reloads that never mix model versions within a batch.
"""

import json
import os
import struct
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core import ScenarioExtractor
from repro.core.cache import (
    CACHE_FILE,
    clip_content_hash,
    shard_cache_dir,
)
from repro.models import ModelConfig, build_model
from repro.obs import metrics
from repro.obs.events import EventLog
from repro.serve import (
    HEALTH_SCHEMA,
    FaultInjector,
    ServiceClient,
    ServiceConfig,
    ServicePool,
    shard_of,
)
from repro.serve.worker import worker_main

CFG = ModelConfig(frames=4, dim=16, depth=1, num_heads=2)


def _result_key(extraction):
    """Comparable identity of an ExtractionResult (bit-level)."""
    return (extraction.sentence, extraction.description,
            tuple(sorted(extraction.confidences.items())),
            extraction.frame_range)


@pytest.fixture(scope="module")
def model():
    # vt-divided at this config is bitwise batch-size invariant (see
    # test_serve), so pooled results compare bit-for-bit against direct
    # extract_batch no matter which worker batched them how.
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


class TestRouterProperties:
    """The ISSUE-mandated property: shard assignment is a pure function
    of clip content hash — same clip, same worker, across instances and
    across restarts."""

    def test_shard_is_pure_function_of_hash(self, clips):
        for clip in clips:
            digest = clip_content_hash(clip)
            # A copy hashes to the same digest, hence the same rank.
            ranks = {shard_of(digest, 3),
                     shard_of(clip_content_hash(clip.copy()), 3)}
            assert len(ranks) == 1

    def test_shard_values_pinned(self):
        # Frozen assignments: these may never change, or every existing
        # per-shard cache directory in the wild silently goes stale.
        assert shard_of("0" * 24, 3) == 0
        assert shard_of("f" * 24, 3) == int("f" * 24, 16) % 3
        assert shard_of("deadbeefdeadbeefdeadbeef", 4) \
            == int("deadbeefdeadbeefdeadbeef", 16) % 4

    def test_every_digest_bit_matters(self):
        # Folding only a prefix would let distinct hashes collide on
        # rank systematically; flipping the last hex digit must be able
        # to move the shard.
        base = "a" * 24
        shards = {shard_of(base[:-1] + c, 16) for c in "0123456789abcdef"}
        assert len(shards) == 16

    def test_shards_cover_all_ranks(self, clips):
        ranks = {shard_of(clip_content_hash(clip), 2) for clip in clips}
        assert ranks == {0, 1}

    def test_world_size_validated(self):
        with pytest.raises(ValueError, match="world_size"):
            shard_of("0" * 24, 0)
        with pytest.raises(ValueError, match="world_size"):
            shard_of("0" * 24, -1)


class TestShardCacheDir:
    def test_layout_carries_rank_and_world(self, tmp_path):
        path = shard_cache_dir(tmp_path, 1, 3)
        assert path.endswith(os.path.join(str(tmp_path),
                                          "shard-01-of-03"))

    def test_resharding_never_reuses_directories(self, tmp_path):
        # A 3-wide pool must not read a 2-wide pool's shards.
        assert shard_cache_dir(tmp_path, 0, 2) \
            != shard_cache_dir(tmp_path, 0, 3)

    def test_rank_outside_world_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="rank"):
            shard_cache_dir(tmp_path, 3, 3)


class TestPoolDropIn:
    """The single-service behavioural contract, verbatim, on the pool."""

    def test_pooled_results_bit_identical_to_direct(self, extractor,
                                                    clips, direct):
        config = ServiceConfig(max_batch=8, max_wait_s=0.02)
        with ServicePool(extractor, config, workers=2) as pool:
            results = ServiceClient(pool).extract_many(
                list(clips), concurrency=len(clips))
        assert [r.status for r in results] == ["ok"] * len(clips)
        for served, reference in zip(results, direct):
            assert _result_key(served.result) == _result_key(reference)

    def test_wrong_clip_shape_rejected_at_submit(self, extractor):
        with ServicePool(extractor, workers=2) as pool:
            with pytest.raises(ValueError, match="shape"):
                pool.submit(np.zeros((2, 3, 32, 32), dtype=np.float32))

    def test_submit_after_stop_raises(self, extractor, clips):
        pool = ServicePool(extractor, workers=2).start()
        pool.stop()
        with pytest.raises(RuntimeError, match="not running"):
            pool.submit(clips[0])

    def test_timeout_resolves_explicitly(self, extractor, clips):
        injector = FaultInjector(latency_s=0.3, latency_rate=1.0)
        pool = ServicePool(extractor, ServiceConfig(), workers=2,
                           fault_injector=injector)
        with pool:
            result = pool.extract(clips[0], timeout=0.02)
        assert result.status == "timeout"
        assert not result.ok
        assert result.result is None

    def test_overload_sheds_per_worker_queue(self, extractor, clips):
        injector = FaultInjector(latency_s=0.05, latency_rate=1.0)
        config = ServiceConfig(max_batch=1, max_queue=2, max_wait_s=0.0)
        pool = ServicePool(extractor, config, workers=2,
                           fault_injector=injector)
        with pool:
            futures = [pool.submit(clip, timeout=5.0)
                       for clip in clips[:16]]
            results = [f.result() for f in futures]
        statuses = Counter(r.status for r in results)
        assert statuses["shed"] > 0
        assert set(statuses) <= {"ok", "shed"}
        shed = next(r for r in results if r.status == "shed")
        assert "queue full" in shed.error

    def test_transient_failures_retried_in_worker(self, extractor,
                                                  clips):
        # The injector crosses the process boundary as a spec; each
        # worker rebuilds it locally and retries exactly like the
        # single service does.
        injector = FaultInjector(failure_rate=1.0, max_failures=2)
        config = ServiceConfig(max_retries=3, backoff_s=0.001)
        pool = ServicePool(extractor, config, workers=1,
                           fault_injector=injector)
        with pool:
            result = pool.extract(clips[0], timeout=10.0)
        assert result.status == "ok"
        assert result.retries == 2
        assert _result_key(result.result) \
            == _result_key(extractor.extract(clips[0]))

    def test_every_request_accounted(self, extractor, clips):
        before = metrics.counter("serve.requests", status="ok").value
        with ServicePool(extractor, workers=2) as pool:
            results = ServiceClient(pool).extract_many(
                list(clips[:8]), concurrency=8)
        assert all(r.status == "ok" for r in results)
        after = metrics.counter("serve.requests", status="ok").value
        assert after - before == 8
        counts = pool.status_counts()
        assert counts["ok"] == 8
        assert sum(counts.values()) == 8

    def test_ready_and_health_lifecycle(self, extractor):
        pool = ServicePool(extractor, workers=2)
        assert not pool.ready()
        assert pool.health()["status"] == "stopped"
        pool.start()
        assert pool.ready()
        assert pool.health()["status"] == "ok"
        pool.stop()
        assert not pool.ready()

    def test_workers_validated(self, extractor):
        with pytest.raises(ValueError, match="workers"):
            ServicePool(extractor, workers=0)


class TestHealthRollup:
    def test_versioned_schema_with_worker_subdocs(self, extractor,
                                                  clips):
        with ServicePool(extractor, workers=3) as pool:
            pool.extract(clips[0], timeout=10.0)
            health = pool.health()
        assert health["schema"] == HEALTH_SCHEMA
        assert health["role"] == "pool"
        assert health["world_size"] == 3
        assert health["workers_up"] == 3
        assert set(health["workers"]) == {"0", "1", "2"}
        for rank, doc in health["workers"].items():
            assert doc["schema"] == HEALTH_SCHEMA
            assert doc["role"] == "replica"
            assert doc["rank"] == int(rank)
            assert doc["status"] == "ok"
        assert health["breaker"] == "closed"
        assert health["requests"]["ok"] == 1
        assert health["model_version"] == 1

    def test_single_service_document_tagged_too(self, extractor):
        from repro.serve import ExtractionService

        with ExtractionService(extractor) as service:
            health = service.health()
        assert health["schema"] == HEALTH_SCHEMA
        assert health["role"] == "service"

    def test_breaker_rollup_is_worst_of_pool(self, extractor, clips):
        # Persistent faults trip every worker's breaker; the pool
        # surfaces the worst state and degrades.
        injector = FaultInjector(failure_rate=1.0)
        config = ServiceConfig(max_retries=0, breaker_failures=1,
                               backoff_s=0.0, breaker_cooldown_s=60.0)
        pool = ServicePool(extractor, config, workers=2,
                           fault_injector=injector)
        with pool:
            results = [pool.extract(clip, timeout=10.0)
                       for clip in clips[:6]]
            health = pool.health()
        assert all(r.status == "degraded" for r in results)
        assert health["breaker"] == "open"
        assert health["status"] == "degraded"

    def test_live_worker_panel_reads_replica_docs(self, extractor, clips):
        metrics.reset()  # the merged batch series must hold this burst
        with ServicePool(extractor, workers=2) as pool:
            ServiceClient(pool).extract_many(list(clips[:8]),
                                             concurrency=4)
            workers = pool.health()["workers"]
        # After stop every worker's last frame has merged under
        # worker=<rank>.
        worker_batches = sum(m.count for m in metrics.series()
                             if m.name == "serve.batch_size"
                             and "worker" in m.labels)
        assert worker_batches > 0
        routed = {str(rank): metrics.counter(
            "serve.pool.routed", worker=str(rank)).value
            for rank in range(2)}
        assert sorted(workers) == ["0", "1"]
        for rank, doc in workers.items():
            assert doc["status"] == "ok"
            assert doc["breaker"] == "closed"
            assert doc["model_version"] == 1
            assert doc["queue_depth"] == 0
            # The parent's routing counter, not a worker-local tally.
            assert doc["routed"] == routed[rank]
        assert sum(routed.values()) >= 8


class TestSharding:
    def test_route_events_follow_content_hash(self, extractor, clips):
        events = EventLog()  # memory mode: flight recorder only
        with ServicePool(extractor, workers=3, events=events) as pool:
            # Sequential submits so request ids follow clip order.
            futures = [pool.submit(clip, timeout=10.0)
                       for clip in clips[:12]]
            assert all(f.result().status == "ok" for f in futures)
        routed = {}
        for record in events.read():
            # A routed request's ``enqueue`` names its worker.
            if record["event"] == "enqueue":
                assert record["outstanding"] >= 1
                routed[record["request_id"]] = record["worker"]
        assert len(routed) == 12
        # Every routed worker is exactly the hash's shard.
        by_id = {i + 1: shard_of(clip_content_hash(clip), 3)
                 for i, clip in enumerate(clips[:12])}
        assert routed == by_id

    def test_shard_caches_coherent_zero_cross_writes(self, extractor,
                                                     clips, tmp_path):
        cache_root = str(tmp_path / "cache")
        config = ServiceConfig(max_batch=4, max_wait_s=0.01)
        with ServicePool(extractor, config, workers=3,
                         cache=cache_root) as pool:
            first = ServiceClient(pool).extract_many(
                list(clips[:12]), concurrency=12)
            assert all(r.status == "ok" for r in first)
            assert not any(r.cached for r in first)
            second = ServiceClient(pool).extract_many(
                list(clips[:12]), concurrency=12)
        assert all(r.status == "ok" and r.cached for r in second)
        # Inspect the shard stores: every persisted key must hash-route
        # to the rank that owns the directory — zero cross-worker
        # writes, by construction of the router.
        populated = 0
        for rank in range(3):
            store = os.path.join(shard_cache_dir(cache_root, rank, 3),
                                 CACHE_FILE)
            if not os.path.exists(store):
                continue
            populated += 1
            with open(store) as handle:
                for line in handle:
                    key = json.loads(line)["key"]
                    clip_hash = key.split(":", 1)[0]
                    assert shard_of(clip_hash, 3) == rank
        assert populated == 3

    def test_shard_caches_survive_pool_restart(self, extractor, clips,
                                               tmp_path):
        cache_root = str(tmp_path / "cache")
        with ServicePool(extractor, workers=2,
                         cache=cache_root) as pool:
            warm = pool.extract(clips[0], timeout=10.0)
        assert warm.status == "ok" and not warm.cached
        # Same width, same routing function, same shard dirs: a fresh
        # pool serves the clip straight from its shard's store.
        with ServicePool(extractor, workers=2,
                         cache=cache_root) as pool:
            result = pool.extract(clips[0], timeout=10.0)
        assert result.status == "ok"
        assert result.cached

    def test_health_sums_shard_cache_stats(self, extractor, clips,
                                           tmp_path):
        with ServicePool(extractor, workers=2,
                         cache=str(tmp_path / "c")) as pool:
            ServiceClient(pool).extract_many(list(clips[:6]),
                                             concurrency=6)
            ServiceClient(pool).extract_many(list(clips[:6]),
                                             concurrency=6)
            health = pool.health()
        cache = health["cache"]
        assert cache["entries"] == 6
        assert cache["hits"] == 6
        assert cache["misses"] == 6
        assert cache["hit_rate"] == pytest.approx(0.5)


class TestRollingReload:
    def test_concurrent_reload_never_mixes_versions(self, clips):
        # A request stream across an in-place swap sees only
        # whole-version results — model_version
        # 1 results are bitwise the old model's, version 2 the new
        # model's, nothing in between.
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
        pool = ServicePool(ScenarioExtractor(model_a), config,
                           workers=2)
        out = {}
        with pool:
            client = ServiceClient(pool)

            def call(i):
                out[i] = client.extract(clips[i], timeout=10.0)

            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(len(clips))]
            for j, thread in enumerate(threads):
                thread.start()
                if j == len(clips) // 2:
                    version = pool.reload(model_b)
            for thread in threads:
                thread.join()
        assert version == 2
        assert pool.model_version == 2
        assert len(out) == len(clips)
        for i, result in out.items():
            assert result.status == "ok"
            key = _result_key(result.result)
            assert key in (keys_a[i], keys_b[i])
            if result.model_version == 2:
                assert key == keys_b[i]
            else:
                assert key == keys_a[i]

    def test_requests_during_reload_complete(self, extractor, clips,
                                             model):
        # Inject latency so work is in flight during the swap, and
        # fire requests mid-reload: all must still resolve "ok".
        injector = FaultInjector(latency_s=0.02, latency_rate=1.0)
        config = ServiceConfig(max_batch=2, max_wait_s=0.0)
        pool = ServicePool(extractor, config, workers=2,
                           fault_injector=injector)
        with pool:
            futures = [pool.submit(clip, timeout=10.0)
                       for clip in clips[:8]]
            version = pool.reload(model)
            late = [pool.submit(clip, timeout=10.0)
                    for clip in clips[8:12]]
            results = [f.result() for f in futures + late]
        assert version == 2
        assert all(r.status == "ok" for r in results)

    def test_reload_does_not_wait_for_queued_work(self, clips):
        # The swap is in place: reload returns while requests submitted
        # before it still sit behind the injected latency, and every
        # result is bitwise the model its model_version names.
        model_a = build_model("vt-divided", CFG)
        model_b = build_model(
            "vt-divided",
            ModelConfig(frames=4, dim=16, depth=1, num_heads=2, seed=9),
        )
        keys = {1: [_result_key(r) for r in
                    ScenarioExtractor(model_a).extract_batch(clips[:12])],
                2: [_result_key(r) for r in
                    ScenarioExtractor(model_b).extract_batch(clips[:12])]}
        injector = FaultInjector(latency_s=0.2, latency_rate=1.0)
        config = ServiceConfig(max_batch=1, max_wait_s=0.0)
        with ServicePool(ScenarioExtractor(model_a), config, workers=2,
                         fault_injector=injector) as pool:
            futures = [pool.submit(clip, timeout=30.0)
                       for clip in clips[:12]]
            assert pool.reload(model_b) == 2
            unresolved = sum(not future.done() for future in futures)
            results = [future.result() for future in futures]
        assert unresolved >= 1
        for i, result in enumerate(results):
            assert result.status == "ok"
            assert _result_key(result.result) == \
                keys[result.model_version][i]

    def test_pool_keeps_extractor_settings(self, model, clips):
        # Workers serve the extractor they were given, decoding settings
        # included, and a reload keeps them.
        tuned = ScenarioExtractor(model, threshold=0.3, batch_size=3)
        model_b = build_model(
            "vt-divided",
            ModelConfig(frames=4, dim=16, depth=1, num_heads=2, seed=9),
        )
        before = [_result_key(r) for r in tuned.extract_batch(clips[:6])]
        after = [_result_key(r) for r in
                 tuned.clone_with_model(model_b).extract_batch(clips[:6])]
        default = [_result_key(r) for r in
                   ScenarioExtractor(model).extract_batch(clips[:6])]
        assert before != default  # the settings are visible in results
        with ServicePool(tuned, workers=2) as pool:
            client = ServiceClient(pool)
            served_before = client.extract_many(list(clips[:6]),
                                                timeout=10.0)
            pool.reload(model_b)
            served_after = client.extract_many(list(clips[:6]),
                                               timeout=10.0)
        assert [_result_key(r.result) for r in served_before] == before
        assert [_result_key(r.result) for r in served_after] == after

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
        with ServicePool(extractor, workers=2) as pool:
            pool.reload(path)
            result = pool.extract(clips[0], timeout=10.0)
        assert result.status == "ok"
        assert _result_key(result.result) == expected

    def test_reload_shape_change_rejected(self, extractor):
        other = build_model(
            "frame-mlp",
            ModelConfig(frames=8, dim=16, depth=1, num_heads=2),
        )
        pool = ServicePool(extractor, workers=2)
        with pytest.raises(ValueError, match="clip shape"):
            pool.reload(other)

    def test_reload_emits_per_worker_lifecycle(self, extractor, model,
                                               clips):
        events = EventLog()
        with ServicePool(extractor, workers=2, events=events) as pool:
            pool.extract(clips[0], timeout=10.0)
            pool.reload(model)
        kinds = [r["event"] for r in events.read()]
        assert kinds.count("worker_reload") == 2
        assert "reload" in kinds


class TestWorkerRestart:
    """Regression for the fail-static-forever bug: a rank whose process
    dies is auto-restarted (bounded) and re-attaches its shard cache."""

    @staticmethod
    def _wait_for(predicate, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.05)
        return predicate()

    def test_killed_rank_restarts_with_warm_shard_cache(self, extractor,
                                                        clips, tmp_path):
        events = EventLog()
        cache_root = str(tmp_path / "cache")
        config = ServiceConfig(max_batch=4, max_wait_s=0.01)
        with ServicePool(extractor, config, workers=2, cache=cache_root,
                         events=events) as pool:
            warm = ServiceClient(pool).extract_many(list(clips[:12]),
                                                    concurrency=8)
            assert all(r.status == "ok" for r in warm)
            assert not any(r.cached for r in warm)
            victim = 1
            pool._procs[victim].terminate()
            # The monitor marks the rank dead, then the restart thread
            # brings a replacement up on the same shard.
            assert self._wait_for(
                lambda: any(r["event"] == "worker_restart"
                            for r in events.read()))
            assert self._wait_for(pool.ready)
            again = ServiceClient(pool).extract_many(list(clips[:12]),
                                                     concurrency=8)
            # Bit-wise identical answers, all served from the shard
            # stores — the replacement re-attached its predecessor's
            # cache directory, so the crash cost zero recomputation.
            assert all(r.status == "ok" and r.cached for r in again)
            assert [_result_key(r.result) for r in again] \
                == [_result_key(r.result) for r in warm]
        names = [r["event"] for r in events.read()]
        assert "worker_dead" in names
        restarts = [r for r in events.read()
                    if r["event"] == "worker_restart"]
        assert restarts and restarts[0]["worker"] == victim
        assert restarts[0]["attempt"] == 1

    def test_restart_budget_zero_stays_failed_static(self, extractor,
                                                     clips):
        events = EventLog()
        with ServicePool(extractor, workers=2, max_worker_restarts=0,
                         events=events) as pool:
            ok = pool.extract(clips[0], timeout=10.0)
            assert ok.status == "ok"
            victim = 0
            pool._procs[victim].terminate()
            assert self._wait_for(
                lambda: any(r["event"] == "worker_dead"
                            for r in events.read()))
            # No restart budget: the rank must stay dead (fail static).
            assert not self._wait_for(pool.ready, timeout=1.0)
            routed_dead = [c for c in clips[:8]
                           if shard_of(clip_content_hash(c), 2) == victim]
            result = pool.extract(routed_dead[0], timeout=10.0)
            assert result.status == "error"
            assert "worker 0 is down" in result.error
        assert not any(r["event"] == "worker_restart"
                       for r in events.read())

    def test_restart_budget_validated(self, extractor):
        with pytest.raises(ValueError, match="max_worker_restarts"):
            ServicePool(extractor, workers=2, max_worker_restarts=-1)

    def test_restarted_rank_serves_reloaded_version(self, extractor,
                                                    model, clips):
        events = EventLog()
        victim = 0
        clip = next(c for c in clips
                    if shard_of(clip_content_hash(c), 2) == victim)
        with ServicePool(extractor, workers=2, events=events) as pool:
            assert pool.reload(model) == 2
            pool._procs[victim].terminate()
            assert self._wait_for(
                lambda: any(r["event"] == "worker_restart"
                            for r in events.read()))
            assert self._wait_for(pool.ready)
            result = pool.extract(clip, timeout=10.0)
            health = pool.health()
        assert result.status == "ok"
        assert result.model_version == pool.model_version == 2
        assert health["workers"][str(victim)]["model_version"] == 2

    def test_torn_result_message_marks_rank_dead(self, extractor, clips,
                                                 monkeypatch):
        def torn_worker(spec, request_q, result_conn):
            """Rank 0 comes up, then dies halfway through a message."""
            if spec.rank != 0:
                return worker_main(spec, request_q, result_conn)
            result_conn.send(("up", 0))
            request_q.get()
            # A frame header promising 100,000 bytes, then 1,000.
            os.write(result_conn.fileno(),
                     struct.pack("!i", 100_000) + b"x" * 1000)
            os._exit(1)

        monkeypatch.setattr("repro.serve.pool.worker_main", torn_worker)
        events = EventLog()
        by_rank = {rank: [c for c in clips
                          if shard_of(clip_content_hash(c), 2) == rank]
                   for rank in (0, 1)}
        with ServicePool(extractor, workers=2, max_worker_restarts=0,
                         events=events) as pool:
            torn = pool.submit(by_rank[0][0], timeout=10.0)
            assert self._wait_for(
                lambda: any(r["event"] == "worker_dead"
                            for r in events.read()), timeout=10.0)
            assert torn.result(timeout=10.0).status == "error"
            # The collector is not wedged: the other rank keeps serving.
            for clip in by_rank[1][:3]:
                assert pool.extract(clip, timeout=10.0).status == "ok"
        dead = [r for r in events.read() if r["event"] == "worker_dead"]
        assert [r["worker"] for r in dead] == [0]
        assert "torn" in dead[0]["error"]

    def test_health_reports_restarted_rank_reachable(self, extractor,
                                                     clips):
        events = EventLog()
        with ServicePool(extractor, workers=2, events=events) as pool:
            assert pool.extract(clips[0], timeout=10.0).status == "ok"
            pool._procs[0].terminate()
            assert self._wait_for(
                lambda: any(r["event"] == "worker_restart"
                            for r in events.read()))
            assert self._wait_for(pool.ready)
            health = pool.health()
            statuses = {rank: doc["status"]
                        for rank, doc in health["workers"].items()}
            assert statuses == {"0": "ok", "1": "ok"}


class TestResultChannel:
    def test_worker_sends_never_overlap(self, model, clips):
        # A worker writes results from its replica's batch thread and
        # telemetry frames and health replies from its intake loop, all
        # over one pipe; overlapping sends would interleave frames.
        # Run the worker loop in-process on a channel that records
        # overlapping sends, under a tiny switch interval.
        import queue
        import sys

        from repro.obs import events as obs_events
        from repro.serve.worker import WorkerSpec

        class Channel:
            def __init__(self):
                self.active = self.overlaps = 0
                self.messages = []

            def send(self, message):
                self.active += 1
                self.overlaps += self.active > 1
                time.sleep(1e-4)
                self.messages.append(message)
                self.active -= 1

        spec = WorkerSpec(rank=0, world_size=1,
                          extractor=ScenarioExtractor(model),
                          config=ServiceConfig(max_batch=2),
                          telemetry_interval_s=0.001)
        requests, channel = queue.Queue(), Channel()
        switch = sys.getswitchinterval()
        previous = obs_events.get_active()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=worker_main,
                                      args=(spec, requests, channel))
            worker.start()
            for i in range(48):
                requests.put(("extract", i, clips[i % len(clips)],
                              None, 30.0))
                requests.put(("health", i))
            requests.put(("stop",))
            worker.join(60.0)
        finally:
            sys.setswitchinterval(switch)
            obs_events.set_active(previous)
        assert not worker.is_alive()
        kinds = Counter(message[0] for message in channel.messages)
        assert kinds["result"] == kinds["health"] == 48
        assert kinds["telemetry"] >= 1
        assert channel.overlaps == 0


class TestPoolBurstAccounting:
    """The pool variant of the fault-burst acceptance: a concurrent
    burst under injected faults completes with zero silent failures and
    exact per-status accounting."""

    def test_burst_all_accounted(self, clips):
        model = build_model("vt-divided", CFG)
        extractor = ScenarioExtractor(model)
        direct_keys = [_result_key(r)
                       for r in extractor.extract_batch(clips)]
        injector = FaultInjector(failure_rate=0.3, latency_s=0.01,
                                 latency_rate=0.1, seed=42)
        config = ServiceConfig(max_batch=8, max_wait_s=0.002,
                               max_queue=32, max_retries=2,
                               backoff_s=0.001, breaker_failures=3,
                               breaker_cooldown_s=0.02)
        pool = ServicePool(extractor, config, workers=3,
                           fault_injector=injector)
        n = 96
        requests = [clips[i % len(clips)] for i in range(n)]
        with pool:
            client = ServiceClient(pool)
            results = client.extract_many(requests, concurrency=16,
                                          timeout=10.0)
        assert len(results) == n, "every request must get a response"
        statuses = Counter(r.status for r in results)
        assert sum(statuses.values()) == n
        assert set(statuses) <= {"ok", "degraded", "shed", "timeout",
                                 "error"}
        assert statuses["error"] == 0
        assert statuses["ok"] > 0
        for i, result in enumerate(results):
            if result.status == "ok":
                assert _result_key(result.result) \
                    == direct_keys[i % len(clips)]
        counts = pool.status_counts()
        assert sum(counts.values()) == n
        for status in ("ok", "degraded", "shed", "timeout", "error"):
            assert counts[status] == statuses.get(status, 0)
