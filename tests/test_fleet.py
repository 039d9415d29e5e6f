"""Out-of-core fleet mining tests (``repro.core.fleet``).

The ISSUE acceptance criteria, as tests: fleet-mined top-k over a
sharded on-disk corpus is bitwise-equal to the in-memory
:class:`ScenarioMiner` on the same clips, queries rank through
memory-mapped per-shard vectors, and an interrupted extraction run
resumes with zero repeat forward passes.
"""

import json
import os

import numpy as np
import pytest

from repro.core import (
    ScenarioExtractor,
    ScenarioMiner,
    fleet,
)
from repro.data import SynthDriveConfig, generate_dataset
from repro.models import ModelConfig, build_model
from repro.sdl import ScenarioDescription

CFG = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                  num_heads=2, dropout=0.0)

QUERY = ScenarioDescription(scene="straight-road", ego_action="stop",
                            actors=frozenset({"pedestrian"}),
                            actor_actions=frozenset({"crossing"}))


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(SynthDriveConfig(
        num_clips=14, frames=4, height=16, width=16, seed=7,
        families=("free-drive", "pedestrian-crossing", "lead-brake"),
    ))


@pytest.fixture(scope="module")
def extractor():
    # vt-divided is bitwise batch-size invariant (see test_serve), so
    # shard-by-shard extraction compares bit-for-bit against one-call
    # in-memory extraction.
    return ScenarioExtractor(build_model("vt-divided", CFG))


def _count_forwards(extractor, counter):
    """Wrap ``extract_batch`` so each forward-pass call is counted."""
    real = extractor.extract_batch

    def counting(clips, batch_size=None):
        counter["calls"] += 1
        counter["clips"] += len(clips)
        return real(clips, batch_size=batch_size)

    return counting


class TestCorpusLayout:
    def test_write_corpus_shards_in_order(self, dataset, tmp_path):
        corpus = str(tmp_path / "corpus")
        info = fleet.write_corpus(dataset.videos, corpus, shard_size=4,
                                  families=dataset.families)
        assert info == {"shards": 4, "clips": 14}
        shards = fleet.corpus_shards(corpus)
        assert shards == ["shard-0000", "shard-0001", "shard-0002",
                          "shard-0003"]
        loaded = [fleet.load_shard(corpus, s) for s in shards]
        assert [len(clips) for clips, _ in loaded] == [4, 4, 4, 2]
        # Global walk order equals the clips' original order.
        clips = np.concatenate([clips for clips, _ in loaded])
        families = [f for _, shard_families in loaded
                    for f in shard_families]
        assert np.array_equal(clips, dataset.videos)
        assert families == list(dataset.families)
        assert fleet.load_shard(corpus, "shard-0000")[0].shape \
            == (4, 4, 3, 16, 16)

    def test_write_corpus_validates_input(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="shard_size"):
            fleet.write_corpus(dataset.videos, str(tmp_path / "c"),
                               shard_size=0)
        with pytest.raises(ValueError, match="families"):
            fleet.write_corpus(dataset.videos, str(tmp_path / "c"),
                               families=["only-one"])
        with pytest.raises(ValueError, match="clips"):
            fleet.write_corpus(dataset.videos[0], str(tmp_path / "c"))

    def test_missing_corpus_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fleet.corpus_shards(str(tmp_path / "nowhere"))

    def test_shard_is_one_mapped_array(self, dataset, tmp_path):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=8)
        assert sorted(os.listdir(os.path.join(corpus, "shard-0000"))) \
            == ["clips.npy"]
        clips, families = fleet.load_shard(corpus, "shard-0001")
        assert isinstance(clips, np.memmap)
        assert clips.dtype == np.float32
        assert np.array_equal(clips, dataset.videos[8:])
        assert families == [None] * 6

    def test_rewrite_over_existing_corpus_rejected(self, dataset,
                                                   tmp_path):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=4)
        with pytest.raises(FileExistsError):
            fleet.write_corpus(dataset.videos[:8], corpus, shard_size=8)
        # The first corpus is untouched: no stale shard mixes in.
        shards = fleet.corpus_shards(corpus)
        clips = np.concatenate([fleet.load_shard(corpus, s)[0]
                                for s in shards])
        assert np.array_equal(clips, dataset.videos)

    def test_shard_without_clips_is_empty(self, dataset, extractor,
                                          tmp_path):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos[:4], corpus, shard_size=4)
        os.makedirs(os.path.join(corpus, "shard-0001"))
        with open(os.path.join(corpus, "shard-0001", "families.json"),
                  "w") as handle:
            json.dump(["free-drive"] * 4, handle)
        clips, families = fleet.load_shard(corpus, "shard-0001")
        assert len(clips) == 0 and families == []
        stats = fleet.extract_corpus(extractor, corpus)
        assert (stats.shards, stats.clips) == (1, 4)

    def test_corpus_without_clips_rejected(self, extractor, tmp_path):
        # Regression: an empty corpus used to surface as the index's
        # "run extract_corpus() first" RuntimeError.
        import repro
        from repro.cli import main

        corpus = str(tmp_path / "corpus")
        os.makedirs(os.path.join(corpus, "shard-0000"))
        with pytest.raises(FileNotFoundError, match="holds no clips"):
            fleet.extract_corpus(extractor, corpus)
        with pytest.raises(FileNotFoundError, match="holds no clips"):
            repro.mine_corpus(extractor, corpus, ego_action="stop")
        ckpt = str(tmp_path / "model.npz")
        extractor.model.save(ckpt)
        with pytest.raises(FileNotFoundError, match="holds no clips"):
            main(["mine", "--corpus-dir", corpus, "--checkpoint", ckpt])


def _write_v1_corpus(clips, corpus_dir, shard_size, families):
    """The layout-v1 writer: one ``clip-NNNNNN.npz`` object per clip."""
    for start in range(0, len(clips), shard_size):
        shard_dir = os.path.join(corpus_dir,
                                 f"shard-{start // shard_size:04d}")
        os.makedirs(shard_dir)
        for i in range(start, min(start + shard_size, len(clips))):
            np.savez(os.path.join(shard_dir, f"clip-{i:06d}.npz"),
                     clip=clips[i], family=np.array(families[i]))


class TestLegacyLayout:
    """Layout-v1 corpora are still read, with the same results."""

    @pytest.fixture(scope="class")
    def mined(self, dataset, extractor, tmp_path_factory):
        root = tmp_path_factory.mktemp("layouts")
        runs = {}
        for layout in ("v1", "v2"):
            corpus = str(root / layout)
            if layout == "v1":
                _write_v1_corpus(dataset.videos, corpus, 4,
                                 dataset.families)
            else:
                fleet.write_corpus(dataset.videos, corpus, shard_size=4,
                                   families=dataset.families)
            stats = fleet.extract_corpus(extractor, corpus)
            runs[layout] = (corpus, stats,
                            fleet.FleetIndex.open(corpus, extractor))
        return runs

    def test_load_shard_reads_v1(self, mined, dataset):
        corpus = mined["v1"][0]
        clips, families = fleet.load_shard(corpus, "shard-0003")
        assert not isinstance(clips, np.memmap)
        assert np.array_equal(clips, dataset.videos[12:])
        assert families == list(dataset.families[12:])
        assert fleet.load_shard(corpus, "shard-0000")[0].shape \
            == (4, 4, 3, 16, 16)

    def test_vector_stores_byte_identical(self, mined):
        stores = {layout: run[2].store for layout, run in mined.items()}
        for shard in fleet.corpus_shards(mined["v1"][0]):
            with open(stores["v1"].vectors_path(shard), "rb") as v1, \
                    open(stores["v2"].vectors_path(shard), "rb") as v2:
                assert v1.read() == v2.read()

    def test_records_equal_but_object(self, mined):
        v1 = list(mined["v1"][2].iter_records())
        v2 = list(mined["v2"][2].iter_records())
        assert [r.pop("object") for r in v1] \
            == [f"clip-{i:06d}.npz" for i in range(14)]
        assert [r.pop("object") for r in v2] \
            == [f"clips.npy#{i % 4}" for i in range(14)]
        assert v1 == v2

    def test_queries_equal(self, mined, dataset):
        for query in [QUERY] + list(dataset.descriptions[:5]):
            for top_k in (1, 5, 14):
                hits = {layout: [(h.clip_id, h.score, h.sentence)
                                 for h in run[2].query(query, top_k=top_k)]
                        for layout, run in mined.items()}
                assert hits["v1"] == hits["v2"]

    def test_mixed_shard_rejected(self, dataset, extractor, tmp_path):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos[:4], corpus, shard_size=4)
        np.savez(os.path.join(corpus, "shard-0000", "clip-000000.npz"),
                 clip=dataset.videos[0])
        with pytest.raises(ValueError, match="both"):
            fleet.load_shard(corpus, "shard-0000")
        with pytest.raises(ValueError, match="both"):
            fleet.extract_corpus(extractor, corpus)

    def test_v2_rerun_reads_no_clip_bytes(self, dataset, extractor,
                                          tmp_path, monkeypatch):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=4)
        fleet.extract_corpus(extractor, corpus)
        loaded = []
        real_load_shard = fleet.load_shard

        def recording(corpus_dir, shard):
            clips, families = real_load_shard(corpus_dir, shard)
            loaded.append(clips)
            return clips, families

        def no_extraction(*args, **kwargs):
            raise AssertionError("a skipped shard reached extraction")

        monkeypatch.setattr(fleet, "load_shard", recording)
        monkeypatch.setattr(fleet, "cached_extract_batch", no_extraction)
        rerun = fleet.extract_corpus(extractor, corpus)
        assert rerun.shards_skipped == 4
        assert rerun.clips_extracted == 0
        # Each shard came back as a map; the only reader of its rows
        # (extraction) never ran.
        assert len(loaded) == 4
        assert all(isinstance(clips, np.memmap) for clips in loaded)


class TestOutOfCoreParity:
    """Fleet results must be bit-identical to the in-memory miner."""

    @pytest.fixture(scope="class")
    def mined(self, dataset, extractor, tmp_path_factory):
        corpus = str(tmp_path_factory.mktemp("parity-corpus"))
        fleet.write_corpus(dataset.videos, corpus, shard_size=4,
                           families=dataset.families)
        stats = fleet.extract_corpus(extractor, corpus)
        index = fleet.FleetIndex.open(corpus, extractor)
        miner = ScenarioMiner(extractor)
        miner.index(dataset.videos)
        return corpus, stats, index, miner

    def test_topk_bitwise_equal_to_memory_miner(self, mined, dataset):
        _, _, index, miner = mined
        retrieval = ScenarioMiner()
        retrieval.add_descriptions([
            h.description for h in sorted(miner.query(QUERY, miner.size),
                                          key=lambda h: h.clip_id)])
        queries = [QUERY] + list(dataset.descriptions[:5])
        for query in queries:
            for top_k in (1, 3, 14, 50):
                fleet_hits = index.query(query, top_k=top_k)
                memory_hits = miner.query(query, top_k=top_k)
                assert [(h.clip_id, h.score, h.sentence, h.description)
                        for h in fleet_hits] \
                    == [(h.clip_id, h.score, h.sentence, h.description)
                        for h in memory_hits]
                ids, scores = retrieval.rank(query, top_k=top_k)
                assert ids.tolist() == [h.clip_id for h in memory_hits]
                assert all(score <= 1.0 for score in scores)

    def test_min_score_filter_matches(self, mined):
        _, _, index, miner = mined
        floor = miner.query(QUERY, top_k=14)[5].score
        assert [(h.clip_id, h.score) for h in
                index.query(QUERY, top_k=14, min_score=floor)] \
            == [(h.clip_id, h.score) for h in
                miner.query(QUERY, top_k=14, min_score=floor)]

    def test_query_tags_matches(self, mined):
        _, _, index, miner = mined
        assert [(h.clip_id, h.score) for h in
                index.query_tags(top_k=4, ego_action="stop",
                                 actors={"pedestrian"})] \
            == [(h.clip_id, h.score) for h in
                miner.query_tags(top_k=4, ego_action="stop",
                                 actors={"pedestrian"})]

    def test_vectors_are_memory_mapped(self, mined):
        _, _, index, _ = mined
        index.query(QUERY, top_k=3)
        for entry in index.manifest["shards"]:
            matrix = index._matrix(entry["name"])
            assert isinstance(matrix, np.memmap)
            assert matrix.dtype == np.float32
            assert matrix.shape[0] == entry["clips"]

    def test_manifest_schema(self, mined, extractor):
        corpus, stats, index, _ = mined
        manifest = index.manifest
        assert manifest["schema"] == fleet.FLEET_FORMAT
        assert manifest["clips"] == 14
        assert manifest["fingerprint"] \
            == fleet.extraction_fingerprint(extractor)
        offsets = [s["offset"] for s in manifest["shards"]]
        assert offsets == [0, 4, 8, 12]
        assert stats.store_root.endswith(manifest["fingerprint"])

    def test_top_criticality_streams_global_order(self, mined):
        _, _, index, _ = mined
        records = list(index.iter_records())
        expected = sorted(records,
                          key=lambda r: (-r["criticality"],
                                         r["clip_id"]))
        for n in (5, len(records), len(records) + 10):
            top = fleet.top_criticality(index, n)
            assert [(t["clip_id"], t["criticality"]) for t in top] \
                == [(r["clip_id"], r["criticality"])
                    for r in expected[:n]]

        # Tied criticalities, streamed out of clip-id order.
        class Records:
            def iter_records(self):
                for clip_id, criticality in ((3, 0.5), (0, 0.9), (2, 0.5),
                                             (1, 0.5), (4, 0.9)):
                    yield {"clip_id": clip_id, "criticality": criticality,
                           "sentence": f"clip {clip_id}"}

        top = fleet.top_criticality(Records(), 3)
        assert [t["clip_id"] for t in top] == [0, 4, 1]
        top = fleet.top_criticality(Records(), 10)
        assert [t["clip_id"] for t in top] == [0, 4, 1, 2, 3]
        assert [t["criticality"] for t in top] == [0.9, 0.9, 0.5, 0.5, 0.5]

    def test_records_carry_export_schema_fields(self, mined, dataset):
        _, _, index, _ = mined
        records = list(index.iter_records())
        assert [r["clip_id"] for r in records] == list(range(14))
        for record in records:
            assert {"description", "sentence", "confidences",
                    "criticality", "frame_range", "family", "shard",
                    "object"} <= set(record)
        assert [r["family"] for r in records] == list(dataset.families)


class TestResumability:
    def test_rerun_skips_every_shard_with_zero_forwards(self, dataset,
                                                        extractor,
                                                        tmp_path,
                                                        monkeypatch):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=4)
        first = fleet.extract_corpus(extractor, corpus)
        assert first.shards_extracted == 4
        assert first.clips_extracted == 14
        counter = {"calls": 0, "clips": 0}
        monkeypatch.setattr(extractor, "extract_batch",
                            _count_forwards(extractor, counter))
        second = fleet.extract_corpus(extractor, corpus)
        assert counter == {"calls": 0, "clips": 0}
        assert second.shards_skipped == 4
        assert second.shards_extracted == 0
        assert second.clips_extracted == 0

    def test_interrupted_run_resumes_without_repeats(self, dataset,
                                                     extractor,
                                                     tmp_path,
                                                     monkeypatch):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=4)
        real = extractor.extract_batch
        calls = {"n": 0}

        def crash_after_two(clips, batch_size=None):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("simulated interruption")
            return real(clips, batch_size=batch_size)

        monkeypatch.setattr(extractor, "extract_batch", crash_after_two)
        with pytest.raises(RuntimeError, match="interruption"):
            fleet.extract_corpus(extractor, corpus)
        monkeypatch.setattr(extractor, "extract_batch", real)

        counter = {"calls": 0, "clips": 0}
        monkeypatch.setattr(extractor, "extract_batch",
                            _count_forwards(extractor, counter))
        resumed = fleet.extract_corpus(extractor, corpus)
        # Two shards were persisted before the crash; the resume runs
        # forwards only for the remaining two (4 + 2 clips).
        assert resumed.shards_skipped == 2
        assert resumed.shards_extracted == 2
        assert counter["calls"] == 2
        assert counter["clips"] == 6
        index = fleet.FleetIndex.open(corpus, extractor)
        assert len(index) == 14

    def test_deleted_stores_reextract_only_missing(self, dataset,
                                                   extractor, tmp_path,
                                                   monkeypatch):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=4)
        fleet.extract_corpus(extractor, corpus)
        index = fleet.FleetIndex.open(corpus, extractor)
        before = [(h.clip_id, h.score)
                  for h in index.query(QUERY, top_k=5)]
        store = index.store
        os.remove(store.tags_path("shard-0001"))
        os.remove(store.vectors_path("shard-0001"))
        counter = {"calls": 0, "clips": 0}
        monkeypatch.setattr(extractor, "extract_batch",
                            _count_forwards(extractor, counter))
        rerun = fleet.extract_corpus(extractor, corpus)
        assert rerun.shards_extracted == 1
        assert rerun.shards_skipped == 3
        assert counter["clips"] == 4
        after = [(h.clip_id, h.score) for h in
                 fleet.FleetIndex.open(corpus, extractor)
                 .query(QUERY, top_k=5)]
        assert after == before

    def test_truncated_vector_store_reextracts(self, dataset, extractor,
                                               tmp_path):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=4)
        fleet.extract_corpus(extractor, corpus)
        store = fleet.FleetIndex.open(corpus, extractor).store
        path = store.vectors_path("shard-0002")
        truncated = np.load(path)[:1]
        with open(path, "wb") as handle:
            np.save(handle, truncated)
        rerun = fleet.extract_corpus(extractor, corpus)
        assert rerun.shards_extracted == 1
        assert np.load(path, mmap_mode="r").shape[0] == 4

    def test_fingerprint_partitions_stores(self, dataset, extractor,
                                           tmp_path):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos[:4], corpus, shard_size=4)
        fleet.extract_corpus(extractor, corpus)
        other = ScenarioExtractor(extractor.model, threshold=0.4)
        assert fleet.extraction_fingerprint(other) \
            != fleet.extraction_fingerprint(extractor)
        stats = fleet.extract_corpus(other, corpus)
        # A different threshold never reuses the first store.
        assert stats.shards_skipped == 0
        assert stats.shards_extracted == 1

    def test_cache_dedupes_forwards_across_fresh_stores(self, dataset,
                                                        extractor,
                                                        tmp_path,
                                                        monkeypatch):
        from repro.core.cache import ExtractionCache

        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=4)
        cache = ExtractionCache(str(tmp_path / "cache"))
        fleet.extract_corpus(extractor, corpus,
                             store_dir=str(tmp_path / "store-a"),
                             cache=cache)
        counter = {"calls": 0, "clips": 0}
        monkeypatch.setattr(extractor, "extract_batch",
                            _count_forwards(extractor, counter))
        stats = fleet.extract_corpus(extractor, corpus,
                                     store_dir=str(tmp_path / "store-b"),
                                     cache=cache)
        # Fresh store: every shard re-persists, but the extraction
        # cache answers every clip — zero forward passes.
        assert stats.shards_extracted == 4
        assert counter == {"calls": 0, "clips": 0}


class TestMineCorpus:
    def test_one_call_mine_matches_in_memory(self, dataset, extractor,
                                             tmp_path):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=4)
        hits, stats = fleet.mine_corpus(extractor, corpus, query=QUERY,
                                        top_k=4)
        miner = ScenarioMiner(extractor)
        miner.index(dataset.videos)
        assert [(h.clip_id, h.score) for h in hits] \
            == [(h.clip_id, h.score)
                for h in miner.query(QUERY, top_k=4)]
        assert stats.shards_extracted == 4

    def test_query_and_tags_conflict(self, dataset, extractor,
                                     tmp_path):
        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos[:4], corpus, shard_size=4)
        with pytest.raises(ValueError, match="not both"):
            fleet.mine_corpus(extractor, corpus, query=QUERY,
                              ego_action="stop")
        # Rejected before extraction: no store, no manifest.
        store = os.path.join(corpus, fleet.DEFAULT_STORE_DIR)
        assert not os.path.exists(store)
        assert not os.path.exists(fleet.FleetStore(
            store, fleet.extraction_fingerprint(extractor)).manifest_path)

    def test_api_facade(self, dataset, tmp_path):
        import repro

        corpus = str(tmp_path / "corpus")
        model = build_model("vt-divided", CFG)
        info = repro.build_corpus(dataset.videos, corpus, shard_size=4)
        assert info["clips"] == 14
        hits, stats = repro.mine_corpus(model, corpus, query=QUERY,
                                        top_k=3)
        expected = repro.mine(model, dataset.videos, query=QUERY,
                              top_k=3)
        assert [(h.clip_id, h.score, h.sentence) for h in hits] \
            == [(h.clip_id, h.score, h.sentence) for h in expected]
        assert stats.clips == 14


class TestFleetObservability:
    def test_counters_account_scans_and_skips(self, dataset, extractor,
                                              tmp_path):
        from repro.obs import metrics

        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=4)
        scanned = metrics.counter("fleet.shards_scanned")
        skipped = metrics.counter("fleet.shards_skipped")
        extracted = metrics.counter("fleet.clips_extracted")
        base = (scanned.value, skipped.value, extracted.value)
        fleet.extract_corpus(extractor, corpus)
        fleet.extract_corpus(extractor, corpus)
        assert scanned.value - base[0] == 8
        assert skipped.value - base[1] == 4
        assert extracted.value - base[2] == 14

    def test_vectors_mapped_gauge(self, dataset, extractor, tmp_path):
        from repro.obs import metrics

        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(dataset.videos, corpus, shard_size=4)
        fleet.extract_corpus(extractor, corpus)
        gauge = metrics.gauge("fleet.vectors_mapped")
        before = gauge.value
        index = fleet.FleetIndex.open(corpus, extractor)
        index.query(QUERY, top_k=2)
        assert gauge.value - before == 14


class TestFleetCLI:
    def test_mine_corpus_dir_resumable(self, tmp_path, capsys):
        from repro.cli import main

        corpus = str(tmp_path / "corpus")
        data = str(tmp_path / "data.npz")
        ckpt = str(tmp_path / "model.npz")
        assert main(["generate", "--clips", "6", "--frames", "4",
                     "--corpus-dir", corpus, "--shard-size", "2"]) == 0
        assert main(["generate", "--clips", "6", "--frames", "4",
                     "--out", data]) == 0
        assert main(["train", "--data", data, "--out", ckpt,
                     "--epochs", "1", "--model", "frame-mlp",
                     "--dim", "16", "--depth", "1", "--heads", "2"]) == 0
        capsys.readouterr()
        assert main(["mine", "--corpus-dir", corpus,
                     "--checkpoint", ckpt, "--ego-action", "stop",
                     "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["schema"] == "repro.mine/v1"
        assert first["fleet"]["shards_extracted"] == 3
        assert first["fleet"]["shards_skipped"] == 0
        assert first["clips"] == 6
        assert main(["mine", "--corpus-dir", corpus,
                     "--checkpoint", ckpt, "--ego-action", "stop",
                     "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["fleet"]["shards_extracted"] == 0
        assert second["fleet"]["shards_skipped"] == 3
        assert second["hits"] == first["hits"]
        assert second["top_criticality"] == first["top_criticality"]

    def test_mine_requires_exactly_one_source(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["mine", "--checkpoint", "x.npz"]) == 2
        assert "exactly one of --data or --corpus-dir" \
            in capsys.readouterr().err

    def test_generate_requires_exactly_one_destination(self, capsys):
        from repro.cli import main

        assert main(["generate", "--clips", "2"]) == 2
        assert "exactly one of --out or --corpus-dir" \
            in capsys.readouterr().err
