"""Tests for the persistent extraction cache and incremental
mining/retrieval indexing (``docs/caching.md``)."""

import numpy as np
import pytest

from repro import api
from repro.core import (
    ExtractionCache,
    RetrievalIndex,
    ScenarioExtractor,
    ScenarioMiner,
    cached_extract_batch,
    cached_extract_sliding,
    clip_content_hash,
    extractor_version,
    model_fingerprint,
    retrieval_metrics,
)
from repro.core.cache import cache_key
from repro.models import ModelConfig, build_model
from repro.obs import metrics
from repro.sdl import ScenarioDescription
from repro.serve import ExtractionService, FaultInjector, ServiceConfig

CFG = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                  num_heads=2, dropout=0.0)


@pytest.fixture(scope="module")
def model():
    return build_model("vt-divided", CFG)


@pytest.fixture(scope="module")
def extractor(model):
    return ScenarioExtractor(model)


@pytest.fixture(scope="module")
def clips():
    rng = np.random.default_rng(7)
    return rng.random((10, 4, 3, 16, 16)).astype(np.float32)


def _description(ego="stop"):
    return ScenarioDescription(scene="straight-road", ego_action=ego,
                               actors=frozenset({"pedestrian"}),
                               actor_actions=frozenset())


def _counting(extractor):
    """A fresh extractor whose forward passes are counted.

    Returns ``(extractor, counts)`` where ``counts["clips"]`` is the
    number of clips that actually went through the model.
    """
    wrapped = ScenarioExtractor(extractor.model, codec=extractor.codec,
                                threshold=extractor.threshold,
                                batch_size=extractor.batch_size)
    counts = {"clips": 0, "calls": 0}
    inner = wrapped.extract_batch

    def counted(batch, batch_size=None):
        counts["clips"] += len(batch)
        counts["calls"] += 1
        return inner(batch, batch_size=batch_size)

    wrapped.extract_batch = counted
    return wrapped, counts


class TestCacheStore:
    def test_roundtrip_and_idempotent_put(self, tmp_path):
        cache = ExtractionCache(str(tmp_path))
        from repro.core.pipeline import ExtractionResult

        result = ExtractionResult(description=_description(),
                                  sentence="s.", confidences={"scene": 0.5},
                                  frame_range=(0, 4))
        cache.put("k1", result)
        cache.put("k1", result)  # no-op
        assert len(cache) == 1
        got = cache.get("k1")
        assert got.description == result.description
        assert got.sentence == result.sentence
        assert got.confidences == result.confidences
        assert got.frame_range == (0, 4)
        assert cache.get("absent") is None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_persists_across_instances(self, tmp_path, extractor, clips):
        cache = ExtractionCache(str(tmp_path))
        first = cached_extract_batch(extractor, clips, cache)
        reloaded = ExtractionCache(str(tmp_path))
        assert len(reloaded) == len(clips)
        counting, counts = _counting(extractor)
        second = cached_extract_batch(counting, clips, reloaded)
        assert counts["clips"] == 0
        assert [r.description for r in second] \
            == [r.description for r in first]
        assert [r.sentence for r in second] == [r.sentence for r in first]

    def test_corrupt_records_skipped_not_fatal(self, tmp_path, extractor,
                                               clips):
        cache = ExtractionCache(str(tmp_path))
        cached_extract_batch(extractor, clips[:4], cache)
        with open(cache.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"schema": "repro.cache/v1", "key": "torn", '
                         '"description"\n')  # torn final write
        reloaded = ExtractionCache(str(tmp_path))
        assert len(reloaded) == 4
        assert reloaded.corrupt == 2
        assert reloaded.stats()["corrupt_records"] == 2

    def test_record_after_torn_tail_survives(self, tmp_path):
        # A crash that tears the final record costs only that record:
        # the first put after reopening starts a fresh line instead of
        # landing on the torn one (and being dropped with it).
        from repro.core.pipeline import ExtractionResult

        def result(i):
            return ExtractionResult(description=_description(),
                                    sentence=f"s{i}.", confidences={},
                                    frame_range=(0, 4))

        cache = ExtractionCache(str(tmp_path))
        cache.put("k1", result(1))
        with open(cache.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.cache/v1", "key": "k2", ')
        ExtractionCache(str(tmp_path)).put("k3", result(3))
        reloaded = ExtractionCache(str(tmp_path))
        assert reloaded.get("k3") is not None
        assert reloaded.get("k1") is not None
        assert reloaded.corrupt == 1

    def test_eviction_caps_entries_and_compacts(self, tmp_path):
        from repro.core.pipeline import ExtractionResult

        cache = ExtractionCache(str(tmp_path), max_entries=3)
        for i in range(5):
            cache.put(f"k{i}", ExtractionResult(
                description=_description(), sentence=f"s{i}.",
                confidences={}, frame_range=(0, 4)))
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.get("k0") is None  # oldest first
        assert cache.get("k4") is not None
        # the compacted file reloads to exactly the surviving entries
        reloaded = ExtractionCache(str(tmp_path))
        assert len(reloaded) == 3
        assert reloaded.get("k2") is not None

    def test_memory_only_mode(self, extractor, clips):
        cache = ExtractionCache()
        cached_extract_batch(extractor, clips[:2], cache)
        assert cache.path is None
        assert len(cache) == 2

    def test_key_sensitive_to_every_component(self):
        base = cache_key("clip", "model", "vocab", 0.5)
        assert cache_key("other", "model", "vocab", 0.5) != base
        assert cache_key("clip", "other", "vocab", 0.5) != base
        assert cache_key("clip", "model", "other", 0.5) != base
        assert cache_key("clip", "model", "vocab", 0.25) != base

    def test_clip_hash_content_addressed(self, clips):
        assert clip_content_hash(clips[0]) \
            == clip_content_hash(clips[0].copy())
        assert clip_content_hash(clips[0]) != clip_content_hash(clips[1])
        assert clip_content_hash(clips[0]) \
            != clip_content_hash(clips[0].astype(np.float64))

    def test_model_fingerprint_tracks_weights(self, model):
        before = model_fingerprint(model)
        other = build_model("vt-divided", ModelConfig(
            frames=4, height=16, width=16, dim=16, depth=1, num_heads=2,
            dropout=0.0, seed=99))
        assert model_fingerprint(other) != before
        assert model_fingerprint(model) == before  # deterministic


class TestCachedExtraction:
    def test_second_pass_runs_zero_forwards(self, extractor, clips):
        cache = ExtractionCache()
        counting, counts = _counting(extractor)
        first = cached_extract_batch(counting, clips, cache)
        assert counts["clips"] == len(clips)
        second = cached_extract_batch(counting, clips, cache)
        assert counts["clips"] == len(clips)  # unchanged
        assert [r.description for r in first] \
            == [r.description for r in second]

    def test_partial_overlap_extracts_only_misses(self, extractor,
                                                  clips):
        cache = ExtractionCache()
        cached_extract_batch(extractor, clips[:6], cache)
        counting, counts = _counting(extractor)
        results = cached_extract_batch(counting, clips, cache)
        assert counts["clips"] == len(clips) - 6
        direct = extractor.extract_batch(clips)
        assert [r.description for r in results] \
            == [r.description for r in direct]

    def test_half_primed_corpus_hits_exactly_primed_clips(self, extractor,
                                                          clips):
        cache = ExtractionCache()
        cached_extract_batch(extractor, clips[:5], cache)
        hits, misses = cache.hits, cache.misses
        cached_extract_batch(extractor, clips, cache)
        assert cache.hits - hits == 5
        assert cache.misses - misses == len(clips) - 5

    def test_matches_uncached_results(self, extractor, clips):
        cached = cached_extract_batch(extractor, clips,
                                      ExtractionCache())
        direct = extractor.extract_batch(clips)
        for a, b in zip(cached, direct):
            assert a.description == b.description
            assert a.sentence == b.sentence
            assert a.confidences == b.confidences
            assert a.frame_range == b.frame_range

    def test_none_cache_is_passthrough(self, extractor, clips):
        results = cached_extract_batch(extractor, clips[:3], None)
        assert len(results) == 3

    def test_sliding_windows_cache_and_keep_frame_ranges(self,
                                                         extractor):
        rng = np.random.default_rng(3)
        video = rng.random((10, 3, 16, 16)).astype(np.float32)
        cache = ExtractionCache()
        timeline = cached_extract_sliding(extractor, video, 4, 2, cache)
        reference = extractor.extract_sliding(video, window=4, stride=2)
        assert [r.frame_range for r in timeline] \
            == [r.frame_range for r in reference]
        assert [r.description for r in timeline] \
            == [r.description for r in reference]
        counting, counts = _counting(extractor)
        cached_extract_sliding(counting, video, 4, 2, cache)
        assert counts["clips"] == 0


class TestMinerIncremental:
    @pytest.mark.parametrize("splits", [2, 3, 5])
    def test_add_clips_batches_match_one_shot_index(self, extractor,
                                                    clips, splits):
        """Property: K incremental batches == one ``index()`` call over
        the concatenated corpus, for any split."""
        one_shot = ScenarioMiner(extractor)
        one_shot.index(clips)
        incremental = ScenarioMiner(extractor, cache=ExtractionCache())
        for chunk in np.array_split(clips, splits):
            if len(chunk):
                incremental.add_clips(chunk)
        assert incremental.size == one_shot.size
        for query in (_description("stop"), _description("turn-left")):
            assert incremental.query(query, top_k=incremental.size) \
                == one_shot.query(query, top_k=one_shot.size)

    def test_add_clips_returns_stable_ids(self, extractor, clips):
        miner = ScenarioMiner(extractor)
        first = miner.add_clips(clips[:4])
        second = miner.add_clips(clips[4:7])
        assert first == [0, 1, 2, 3]
        assert second == [4, 5, 6]

    def test_cache_backed_reindex_runs_zero_forwards(self, extractor,
                                                     clips):
        cache = ExtractionCache()
        warm = ScenarioMiner(extractor, cache=cache)
        warm.index(clips)
        counting, counts = _counting(extractor)
        cold = ScenarioMiner(counting, cache=cache)
        cold.index(clips)
        assert counts["clips"] == 0
        query = _description()
        assert cold.query(query, top_k=5) == warm.query(query, top_k=5)

    def test_query_tags_forwards_min_score(self, extractor):
        """Regression: ``query_tags`` used to drop ``min_score``."""
        miner = ScenarioMiner(extractor)
        miner.index_descriptions([_description("stop"),
                                  _description("accelerate")])
        unfiltered = miner.query_tags(top_k=5, ego_action="stop",
                                      actors={"pedestrian"})
        assert len(unfiltered) == 2
        filtered = miner.query_tags(top_k=5, min_score=0.999,
                                    ego_action="stop",
                                    actors={"pedestrian"})
        assert [h.clip_id for h in filtered] == [0]
        assert filtered == miner.query(
            ScenarioDescription(scene="straight-road", ego_action="stop",
                                actors=frozenset({"pedestrian"}),
                                actor_actions=frozenset()),
            top_k=5, min_score=0.999)

    def test_min_score_is_inclusive_at_threshold_ties(self, extractor):
        """Pin: the ``min_score`` floor is inclusive, and every clip
        tied exactly at the threshold is returned."""
        miner = ScenarioMiner(extractor)
        miner.index_descriptions([_description("stop"),
                                  _description("stop"),
                                  _description("accelerate")])
        scores = {h.clip_id: h.score
                  for h in miner.query(_description("stop"), top_k=3)}
        threshold = scores[2]  # the partial match's exact score
        hits = miner.query(_description("stop"), top_k=3,
                           min_score=threshold)
        assert [h.clip_id for h in hits] == [0, 1, 2]
        above = np.nextafter(threshold, 2.0)
        hits = miner.query(_description("stop"), top_k=3,
                           min_score=float(above))
        assert [h.clip_id for h in hits] == [0, 1]


class TestRetrievalIncremental:
    def test_add_batch_offsets_ids_regression(self):
        """Regression: a second ``add_batch`` used to restart ids at 0,
        silently duplicating clips."""
        index = RetrievalIndex()
        first = index.add_batch([_description("stop"),
                                 _description("accelerate")])
        second = index.add_batch([_description("turn-left")])
        assert first == [0, 1]
        assert second == [2]
        assert len(index) == 3
        ranked = index.query(_description("turn-left"), top_k=3)
        assert ranked[0] == 2

    def test_two_batch_metrics_resolve_to_correct_clip(self):
        """With the offset bug, the second batch shadowed the first and
        ``retrieval_metrics`` credited ties to the wrong clip."""
        batch_a = [_description("stop"), _description("accelerate")]
        batch_b = [_description("turn-left"), _description("turn-right")]
        index = RetrievalIndex()
        index.add_batch(batch_a)
        index.add_batch(batch_b)
        queries = batch_a + batch_b
        result = retrieval_metrics(queries, index,
                                   correct_ids=[0, 1, 2, 3])
        assert result["recall@1"] == 1.0
        assert result["mrr"] == 1.0

    def test_duplicate_id_rejected(self):
        index = RetrievalIndex()
        index.add(3, _description())
        with pytest.raises(ValueError, match="already indexed"):
            index.add(3, _description("accelerate"))

    def test_topk_matches_full_ranking_prefix(self, extractor, clips):
        index = RetrievalIndex(extractor=extractor)
        index.add_clips(clips)
        query = _description()
        full = index.query(query, top_k=len(index))
        assert index.query(query, top_k=3) == full[:3]
        assert index.query(query, top_k=1) == full[:1]

    def test_add_clips_cache_backed(self, extractor, clips):
        cache = ExtractionCache()
        warm = RetrievalIndex(extractor=extractor, cache=cache)
        warm.add_clips(clips)
        counting, counts = _counting(extractor)
        cold = RetrievalIndex(extractor=counting, cache=cache)
        ids = cold.add_clips(clips)
        assert counts["clips"] == 0
        assert ids == list(range(len(clips)))
        query = _description()
        assert cold.query(query, top_k=4) == warm.query(query, top_k=4)


class TestServiceCache:
    def test_hit_answers_before_queue_with_cached_flag(self, extractor,
                                                       clips):
        cache = ExtractionCache()
        hits_before = metrics.counter("serve.cache_hits").value
        config = ServiceConfig(max_batch=4, max_wait_s=0.005)
        with ExtractionService(extractor, config, cache=cache) as service:
            first = service.extract(clips[0])
            second = service.extract(clips[0])
        assert first.status == "ok" and not first.cached
        assert first.batch_size >= 1
        assert second.status == "ok" and second.cached
        assert second.batch_size == 0  # never queued
        assert second.result.description == first.result.description
        assert metrics.counter("serve.cache_hits").value \
            == hits_before + 1

    def test_cache_shared_across_service_and_direct_path(self,
                                                         extractor,
                                                         clips):
        cache = ExtractionCache()
        cached_extract_batch(extractor, clips[:1], cache)
        with ExtractionService(extractor, cache=cache) as service:
            result = service.extract(clips[0])
        assert result.cached

    def test_stale_entries_never_served_after_hot_reload(self, extractor,
                                                         clips):
        cache = ExtractionCache()
        other = build_model("vt-divided", ModelConfig(
            frames=4, height=16, width=16, dim=16, depth=1, num_heads=2,
            dropout=0.0, seed=123))
        with ExtractionService(extractor, cache=cache) as service:
            before = service.extract(clips[0])
            assert not before.cached
            assert service.extract(clips[0]).cached
            service.reload(other)
            after = service.extract(clips[0])
            assert not after.cached  # old entry keyed to old weights
            assert service.extract(clips[0]).cached  # re-cached under v2
        assert len(cache) == 2  # one entry per model version

    def test_degraded_fallback_results_are_not_cached(self, extractor,
                                                      clips):
        cache = ExtractionCache()
        config = ServiceConfig(max_retries=0, breaker_failures=1,
                               backoff_s=0.0)
        injector = FaultInjector(failure_rate=1.0, seed=0)
        with ExtractionService(extractor, config, cache=cache,
                               fault_injector=injector) as service:
            result = service.extract(clips[0])
        assert result.status == "degraded"
        assert len(cache) == 0

    def test_health_reports_cache_stats(self, extractor, clips):
        cache = ExtractionCache()
        with ExtractionService(extractor, cache=cache) as service:
            service.extract(clips[0])
            health = service.health()
        assert health["cache"]["entries"] == 1
        assert health["cache"]["misses"] == 1


class TestApiCache:
    def test_second_mine_call_runs_zero_forwards_bit_identical(
            self, extractor, clips):
        cache = ExtractionCache()
        counting, counts = _counting(extractor)
        first = api.mine(counting, clips, cache=cache,
                         ego_action="stop", actors={"pedestrian"})
        assert counts["clips"] == len(clips)
        hit_count = metrics.counter("cache.hit").value
        second = api.mine(counting, clips, cache=cache,
                          ego_action="stop", actors={"pedestrian"})
        assert counts["clips"] == len(clips)  # zero new forwards
        assert metrics.counter("cache.hit").value \
            == hit_count + len(clips)
        assert second == first  # bit-identical hits

    def test_mine_cache_dir_convenience(self, extractor, clips,
                                        tmp_path):
        api.mine(extractor, clips, cache_dir=str(tmp_path),
                 ego_action="stop")
        counting, counts = _counting(extractor)
        api.mine(counting, clips, cache_dir=str(tmp_path),
                 ego_action="stop")
        assert counts["clips"] == 0  # persisted across calls

    def test_mine_rejects_cache_and_cache_dir(self, extractor, clips,
                                              tmp_path):
        with pytest.raises(ValueError, match="not both"):
            api.mine(extractor, clips, cache=ExtractionCache(),
                     cache_dir=str(tmp_path), ego_action="stop")

    def test_retrieve_with_cache(self, extractor, clips):
        cache = ExtractionCache()
        first = api.retrieve(extractor, clips, _description(), top_k=3,
                             cache=cache)
        counting, counts = _counting(extractor)
        second = api.retrieve(counting, clips, _description(), top_k=3,
                              cache=cache)
        assert counts["clips"] == 0
        assert first == second

    def test_extract_video_with_cache(self, extractor):
        rng = np.random.default_rng(11)
        video = rng.random((12, 3, 16, 16)).astype(np.float32)
        cache = ExtractionCache()
        first = api.extract_video(extractor, video, window=4, stride=4,
                                  cache=cache)
        counting, counts = _counting(extractor)
        second = api.extract_video(counting, video, window=4, stride=4,
                                   cache=cache)
        assert counts["clips"] == 0
        assert [r.frame_range for r in first] \
            == [r.frame_range for r in second]
        assert [r.description for r in first] \
            == [r.description for r in second]

    def test_version_keyed_cache_never_crosses_models(self, extractor,
                                                      clips, model):
        """A cache populated under one model version must never answer
        for another model's extractor."""
        cache = ExtractionCache()
        api.mine(extractor, clips, cache=cache, ego_action="stop")
        other = build_model("vt-divided", ModelConfig(
            frames=4, height=16, width=16, dim=16, depth=1, num_heads=2,
            dropout=0.0, seed=321))
        counting, counts = _counting(ScenarioExtractor(other))
        api.mine(counting, clips, cache=cache, ego_action="stop")
        assert counts["clips"] == len(clips)  # full re-extraction
        assert extractor_version(counting) != extractor_version(extractor)
