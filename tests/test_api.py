"""Tests for the stable ``repro.api`` facade and self-describing
checkpoints (``repro.checkpoint/v1``)."""

import json
import os

import numpy as np
import pytest

import repro
from repro import api
from repro.core import ScenarioExtractor, ScenarioMiner
from repro.models import ModelConfig, build_model
from repro.models.factory import load_model
from repro.nn.module import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_META_KEY,
    checkpoint_path,
    read_checkpoint_meta,
)

CFG = ModelConfig(frames=4, dim=16, depth=1, num_heads=2)


@pytest.fixture(scope="module")
def model():
    return build_model("frame-mlp", CFG)


@pytest.fixture(scope="module")
def extractor(model):
    return ScenarioExtractor(model)


@pytest.fixture(scope="module")
def clips():
    rng = np.random.default_rng(7)
    return rng.random((8, 4, 3, 32, 32)).astype(np.float32)


@pytest.fixture(scope="module")
def checkpoint(model, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("api") / "model.npz")
    model.save(path)
    return path


def _key(result):
    return (result.sentence, tuple(sorted(result.confidences.items())))


class TestLoadExtractor:
    def test_requires_exactly_one_source(self, model):
        with pytest.raises(ValueError, match="exactly one"):
            api.load_extractor()
        with pytest.raises(ValueError, match="exactly one"):
            api.load_extractor("ck.npz", model=model)

    def test_extractor_passthrough(self, extractor):
        assert api.load_extractor(extractor) is extractor

    def test_from_model(self, model):
        extractor = api.load_extractor(model=model, threshold=0.4,
                                       batch_size=4)
        assert extractor.model is model
        assert extractor.threshold == 0.4
        assert extractor.batch_size == 4

    def test_from_checkpoint_path(self, checkpoint, extractor, clips):
        loaded = api.load_extractor(checkpoint)
        assert _key(loaded.extract(clips[0])) \
            == _key(extractor.extract(clips[0]))


class TestFacadeFunctions:
    def test_extract_clip_matches_extractor(self, extractor, clips):
        assert _key(api.extract_clip(extractor, clips[0])) \
            == _key(extractor.extract(clips[0]))

    def test_extract_clip_accepts_model(self, model, extractor, clips):
        assert _key(api.extract_clip(model, clips[0])) \
            == _key(extractor.extract(clips[0]))

    def test_extract_video_timeline(self, extractor, clips):
        video = np.concatenate(list(clips[:3]))  # (12, C, H, W)
        results = api.extract_video(extractor, video, window=4, stride=4)
        assert len(results) == 3
        assert results[0].frame_range == (0, 4)
        assert results[-1].frame_range == (8, 12)

    def test_mine_tags_matches_miner(self, extractor, clips):
        miner = ScenarioMiner(extractor)
        miner.index(clips)
        expected = miner.query_tags(top_k=3, ego_action="stop")
        hits = api.mine(extractor, clips, top_k=3, ego_action="stop")
        assert [(h.clip_id, h.score) for h in hits] \
            == [(h.clip_id, h.score) for h in expected]

    def test_mine_rejects_query_plus_tags(self, extractor, clips,
                                          monkeypatch):
        query = extractor.extract(clips[0]).description
        forwards = []
        real = extractor.extract_batch

        def counting(batch, **kwargs):
            forwards.append(len(batch))
            return real(batch, **kwargs)

        monkeypatch.setattr(extractor, "extract_batch", counting)
        with pytest.raises(ValueError, match="not both"):
            api.mine(extractor, clips, query=query, ego_action="stop")
        assert forwards == []  # rejected before extracting the corpus

    def test_mine_rejects_no_query(self, extractor, clips, monkeypatch):
        """Regression: with neither a query nor tags, ``mine`` ranked
        against ``tag_query()``'s defaults instead of refusing."""
        forwards = []
        real = extractor.extract_batch

        def counting(batch, **kwargs):
            forwards.append(len(batch))
            return real(batch, **kwargs)

        monkeypatch.setattr(extractor, "extract_batch", counting)
        with pytest.raises(ValueError, match="query or tags"):
            api.mine(extractor, clips)
        assert forwards == []  # rejected before extracting the corpus

    def test_retrieve_matches_manual_index(self, extractor, clips):
        query = extractor.extract(clips[0]).description
        index = ScenarioMiner()
        index.add_descriptions([r.description
                                for r in extractor.extract_batch(clips)])
        assert api.retrieve(extractor, clips, query, top_k=3) \
            == index.rank(query, top_k=3)[0].tolist()

    def test_serve_returns_started_service(self, extractor, clips):
        service = api.serve(extractor, max_batch=4)
        try:
            assert service.ready()
            result = service.extract(clips[0], timeout=5.0)
            assert result.status == "ok"
        finally:
            service.stop()

    def test_serve_rejects_config_plus_kwargs(self, extractor):
        from repro.serve import ServiceConfig

        with pytest.raises(ValueError, match="not both"):
            api.serve(extractor, config=ServiceConfig(), max_batch=4)


class TestTopLevelReexports:
    def test_lazy_facade_exports(self):
        assert repro.load_extractor is api.load_extractor
        assert repro.extract_clip is api.extract_clip
        assert repro.extract_video is api.extract_video
        assert repro.mine is api.mine
        assert repro.retrieve is api.retrieve
        assert repro.ScenarioExtractor is ScenarioExtractor

    def test_exports_listed_in_dir(self):
        names = dir(repro)
        for name in ("load_extractor", "extract_clip", "mine",
                     "retrieve", "ServiceConfig"):
            assert name in names

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_thing"):
            repro.no_such_thing


class TestSelfDescribingCheckpoints:
    def test_save_embeds_metadata(self, checkpoint):
        meta = read_checkpoint_meta(checkpoint)
        assert meta["format"] == CHECKPOINT_FORMAT
        assert meta["model"] == "frame-mlp"
        assert meta["class"] == "FrameDiffMLP"
        assert meta["config"]["dim"] == 16
        assert meta["config"]["frames"] == 4
        assert meta["vocab_hash"]

    def test_load_model_reconstructs_architecture(self, checkpoint,
                                                  extractor, clips):
        loaded = load_model(checkpoint)
        assert type(loaded).__name__ == "FrameDiffMLP"
        assert loaded.config.dim == 16
        reference = extractor.extract_batch(clips)
        roundtrip = ScenarioExtractor(loaded).extract_batch(clips)
        for a, b in zip(roundtrip, reference):
            assert _key(a) == _key(b)

    def test_legacy_checkpoint_rejected_with_remedy(self, model,
                                                    tmp_path):
        path = str(tmp_path / "legacy.npz")
        np.savez(path, **model.state_dict())  # pre-v1: weights only
        with pytest.raises(ValueError, match="build_model"):
            load_model(path)
        assert read_checkpoint_meta(path) is None

    def test_vocab_hash_mismatch_rejected(self, model, tmp_path):
        path = str(tmp_path / "stale.npz")
        model.save(path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(str(arrays[CHECKPOINT_META_KEY]))
        meta["vocab_hash"] = "0" * 16
        arrays[CHECKPOINT_META_KEY] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="vocabulary"):
            load_model(path)

    def test_meta_key_is_reserved(self, model):
        # the metadata entry must never collide with a real parameter
        assert CHECKPOINT_META_KEY not in model.state_dict()


class TestCheckpointPathBugfix:
    """``np.savez`` silently appends ``.npz``; save/load must agree."""

    def test_checkpoint_path_normalisation(self):
        assert checkpoint_path("model") == "model.npz"
        assert checkpoint_path("model.npz") == "model.npz"
        assert checkpoint_path("dir/model") == "dir/model.npz"

    def test_save_load_without_extension(self, model, tmp_path):
        bare = str(tmp_path / "model")  # no .npz
        model.save(bare)
        assert not os.path.exists(bare)
        assert os.path.exists(bare + ".npz")
        other = build_model("frame-mlp", CFG)
        other.load(bare)  # the pre-fix failure mode: FileNotFoundError
        for (_, pa), (_, pb) in zip(model.named_parameters(),
                                    other.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_load_model_without_extension(self, model, tmp_path):
        bare = str(tmp_path / "model")
        model.save(bare)
        assert read_checkpoint_meta(bare)["model"] == "frame-mlp"
        loaded = load_model(bare)
        assert type(loaded).__name__ == "FrameDiffMLP"


class TestPolymorphicStoreParams:
    """One ``cache=`` / ``events=`` parameter accepting instance or
    path, replacing the historical either-or pairs (deprecated but
    still working)."""

    def test_mine_cache_accepts_directory_path(self, extractor, clips,
                                               tmp_path):
        cache_root = tmp_path / "mine-cache"
        api.mine(extractor, clips, cache=cache_root, ego_action="stop")
        hits = api.mine(extractor, clips, cache=str(cache_root),
                        ego_action="stop")
        assert hits  # second pass served from the on-disk store
        assert (cache_root / "extractions.jsonl").exists()

    def test_mine_cache_accepts_instance(self, extractor, clips):
        from repro import ExtractionCache

        cache = ExtractionCache(None)
        api.mine(extractor, clips, cache=cache, ego_action="stop")
        stats = cache.stats()
        assert stats["entries"] == len(clips)
        api.mine(extractor, clips, cache=cache, ego_action="stop")
        assert cache.stats()["hits"] >= len(clips)

    def test_extract_video_cache_path(self, extractor, clips, tmp_path):
        video = np.concatenate(list(clips[:3]))
        results = api.extract_video(extractor, video, window=4, stride=4,
                                    cache=tmp_path / "vid-cache")
        assert len(results) == 3
        assert (tmp_path / "vid-cache" / "extractions.jsonl").exists()

    def test_serve_events_accepts_path(self, extractor, clips,
                                       tmp_path):
        events_dir = tmp_path / "events"
        service = api.serve(extractor, events=events_dir)
        try:
            assert service.extract(clips[0], timeout=5.0).status == "ok"
        finally:
            service.stop()
        assert (events_dir / "events.jsonl").exists()

    def test_serve_config_accepts_mapping(self, extractor):
        service = api.serve(extractor, {"max_batch": 4, "max_queue": 8})
        try:
            assert service.config.max_batch == 4
            assert service.config.max_queue == 8
        finally:
            service.stop()


class TestServeRedesign:
    def test_workers_validated(self, extractor):
        with pytest.raises(ValueError, match="workers"):
            api.serve(extractor, workers=0)

    def test_workers_returns_started_pool(self, extractor, clips):
        from repro import ServicePool

        pool = api.serve(extractor, workers=2, max_batch=4)
        try:
            assert isinstance(pool, ServicePool)
            assert pool.ready()
            result = pool.extract(clips[0], timeout=10.0)
            assert result.status == "ok"
            health = pool.health()
            assert health["schema"] == "repro.health/v1"
            assert health["role"] == "pool"
            assert health["workers_up"] == 2
        finally:
            pool.stop()

    def test_pool_reexported_at_top_level(self):
        from repro.serve import ServicePool

        assert repro.ServicePool is ServicePool
