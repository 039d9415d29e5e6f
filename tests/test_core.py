"""Tests for the core pipeline: extraction, mining, retrieval."""

import numpy as np
import pytest

from repro.core import (
    ScenarioExtractor,
    ScenarioMiner,
    retrieval_metrics,
)
from repro.data import SynthDriveConfig, generate_dataset
from repro.models import ModelConfig, build_model
from repro.sdl import ScenarioDescription
from repro.train import TrainConfig, Trainer

CFG = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                  num_heads=2, dropout=0.0)


@pytest.fixture(scope="module")
def trained_extractor():
    dataset = generate_dataset(SynthDriveConfig(
        num_clips=30, frames=4, height=16, width=16, seed=5,
        families=("free-drive", "pedestrian-crossing", "turn-left"),
    ))
    model = build_model("vt-divided", CFG)
    trainer = Trainer(model, TrainConfig(epochs=8, batch_size=8, lr=3e-3))
    trainer.fit(dataset)
    return ScenarioExtractor(model), dataset


class TestExtractor:
    def test_extract_single_clip(self, trained_extractor):
        extractor, dataset = trained_extractor
        result = extractor.extract(dataset.videos[0])
        assert isinstance(result.description, ScenarioDescription)
        assert result.sentence.endswith(".")
        assert set(result.confidences) == {"scene", "ego_action", "actors",
                                           "actor_actions"}
        assert result.frame_range == (0, 4)

    def test_extract_batch_length(self, trained_extractor):
        extractor, dataset = trained_extractor
        results = extractor.extract_batch(dataset.videos[:6])
        assert len(results) == 6

    def test_confidences_are_probabilities(self, trained_extractor):
        extractor, dataset = trained_extractor
        result = extractor.extract(dataset.videos[0])
        for value in result.confidences.values():
            assert 0.0 <= value <= 1.0

    def test_extraction_matches_ground_truth_on_train(self,
                                                      trained_extractor):
        """The model has fit the 3-family training set; extracted scene
        and ego action should mostly match ground truth."""
        extractor, dataset = trained_extractor
        results = extractor.extract_batch(dataset.videos)
        scene_hits = sum(
            r.description.scene == d.scene
            for r, d in zip(results, dataset.descriptions)
        )
        assert scene_hits / len(results) > 0.8

    def test_wrong_rank_raises(self, trained_extractor):
        extractor, dataset = trained_extractor
        with pytest.raises(ValueError):
            extractor.extract(dataset.videos)  # batch passed to single
        with pytest.raises(ValueError):
            extractor.extract_batch(dataset.videos[0])

    def test_sliding_windows_cover_video(self, trained_extractor):
        extractor, dataset = trained_extractor
        long_video = np.concatenate([dataset.videos[0],
                                     dataset.videos[1]], axis=0)  # 8 frames
        results = extractor.extract_sliding(long_video, window=4, stride=2)
        assert [r.frame_range for r in results] == [(0, 4), (2, 6), (4, 8)]

    def test_batch_stamping_matches_per_row_reference(self,
                                                      trained_extractor):
        """Results are decoded and stamped for the whole batch at once;
        every field must equal the per-row computation."""
        extractor, dataset = trained_extractor
        clips = dataset.videos[:12]
        results = extractor.extract_batch(clips)
        logits = extractor.logits(clips)
        probs = extractor._head_probs(logits)
        vocab = extractor.codec.vocab
        names = {"scene": vocab.scenes, "ego_action": vocab.ego_actions,
                 "actors": vocab.actor_types,
                 "actor_actions": vocab.actor_actions}
        for i, result in enumerate(results):
            desc = extractor.codec.decode(
                {k: v[i] for k, v in logits.items()},
                threshold=extractor.threshold)
            assert result.description == desc
            assert result.sentence == desc.to_sentence()
            assert result.frame_range == (0, clips.shape[1])
            assert result.confidences == {
                head: float(probs[head][i].max(initial=0.0))
                for head in names}
            assert result.tag_confidences == {
                head: dict(zip(tags, probs[head][i].tolist()))
                for head, tags in names.items()}

    def test_sliding_validates_args(self, trained_extractor):
        extractor, dataset = trained_extractor
        with pytest.raises(ValueError):
            extractor.extract_sliding(dataset.videos[0], window=0, stride=1)
        with pytest.raises(ValueError):
            extractor.extract_sliding(dataset.videos[0], window=16, stride=1)


class TestMiner:
    def test_index_and_query(self, trained_extractor):
        extractor, dataset = trained_extractor
        miner = ScenarioMiner(extractor)
        miner.index(dataset.videos[:12])
        assert miner.size == 12
        query = dataset.descriptions[0]
        hits = miner.query(query, top_k=3)
        assert len(hits) == 3
        assert hits[0].score >= hits[-1].score

    def test_query_before_index_raises(self, trained_extractor):
        extractor, _ = trained_extractor
        with pytest.raises(RuntimeError):
            ScenarioMiner(extractor).query(
                ScenarioDescription(scene="straight-road",
                                    ego_action="stop")
            )

    def test_ground_truth_index_finds_same_family(self, trained_extractor):
        """With oracle descriptions indexed, querying a family's
        description must surface clips of that family first."""
        extractor, dataset = trained_extractor
        miner = ScenarioMiner(extractor)
        miner.index_descriptions(dataset.descriptions)
        ped_idx = dataset.families.index("pedestrian-crossing")
        hits = miner.query(dataset.descriptions[ped_idx], top_k=5)
        top_families = [dataset.families[h.clip_id] for h in hits[:3]]
        assert top_families.count("pedestrian-crossing") >= 2

    def test_query_tags_convenience(self, trained_extractor):
        extractor, dataset = trained_extractor
        miner = ScenarioMiner(extractor)
        miner.index_descriptions(dataset.descriptions)
        hits = miner.query_tags(top_k=4, ego_action="stop",
                                actors={"pedestrian"},
                                actor_actions={"crossing"})
        assert len(hits) == 4

    def test_min_score_filters(self, trained_extractor):
        extractor, dataset = trained_extractor
        miner = ScenarioMiner(extractor)
        miner.index_descriptions(dataset.descriptions)
        hits = miner.query(dataset.descriptions[0], top_k=30,
                           min_score=0.999)
        assert all(h.score >= 0.999 for h in hits)

    def test_invalid_top_k(self, trained_extractor):
        extractor, dataset = trained_extractor
        miner = ScenarioMiner(extractor)
        miner.index_descriptions(dataset.descriptions)
        with pytest.raises(ValueError):
            miner.query(dataset.descriptions[0], top_k=0)

    def test_query_tags_respects_min_score(self, trained_extractor):
        """Regression: ``query_tags`` silently dropped ``min_score``,
        so both query paths must filter identically."""
        extractor, dataset = trained_extractor
        miner = ScenarioMiner(extractor)
        miner.index_descriptions(dataset.descriptions)
        tags = dict(ego_action="stop", actors={"pedestrian"},
                    actor_actions={"crossing"})
        via_tags = miner.query_tags(top_k=30, min_score=0.999, **tags)
        via_query = miner.query(
            ScenarioDescription(scene="straight-road", ego_action="stop",
                                actors=frozenset({"pedestrian"}),
                                actor_actions=frozenset({"crossing"})),
            top_k=30, min_score=0.999)
        assert via_tags == via_query
        assert all(h.score >= 0.999 for h in via_tags)
        assert len(via_tags) < len(miner.query_tags(top_k=30, **tags))

    def test_min_score_inclusive_at_exact_tie(self, trained_extractor):
        """Pin: ``min_score`` is an inclusive floor — a hit whose score
        equals the threshold exactly is still returned."""
        extractor, dataset = trained_extractor
        miner = ScenarioMiner(extractor)
        miner.index_descriptions(dataset.descriptions)
        hits = miner.query(dataset.descriptions[0], top_k=miner.size)
        pivot = hits[len(hits) // 2]
        filtered = miner.query(dataset.descriptions[0], top_k=miner.size,
                               min_score=pivot.score)
        assert pivot in filtered
        assert all(h.score >= pivot.score for h in filtered)


class TestRetrieval:
    def descriptions(self):
        return [
            ScenarioDescription(scene="straight-road", ego_action="stop",
                                actors=frozenset({"pedestrian"}),
                                actor_actions=frozenset({"crossing"})),
            ScenarioDescription(scene="intersection",
                                ego_action="turn-left"),
            ScenarioDescription(scene="straight-road",
                                ego_action="drive-straight",
                                actors=frozenset({"car"}),
                                actor_actions=frozenset({"leading"})),
        ]

    def test_oracle_retrieval_perfect(self):
        descs = self.descriptions()
        index = ScenarioMiner()
        index.add_descriptions(descs)
        metrics = retrieval_metrics(descs, index, [0, 1, 2], ks=(1,))
        assert metrics["recall@1"] == 1.0
        assert metrics["mrr"] == 1.0

    def test_query_ranks_exact_match_first(self):
        descs = self.descriptions()
        index = ScenarioMiner()
        index.add_descriptions(descs)
        assert index.rank(descs[1], top_k=1)[0].tolist() == [1]

    def test_empty_index_raises(self):
        with pytest.raises(RuntimeError):
            ScenarioMiner().rank(self.descriptions()[0])

    def test_metrics_validate_lengths(self):
        index = ScenarioMiner()
        index.add_descriptions(self.descriptions())
        with pytest.raises(ValueError):
            retrieval_metrics(self.descriptions(), index, [0])

    def test_recall_at_5_geq_recall_at_1(self):
        descs = self.descriptions() * 3
        index = ScenarioMiner()
        index.add_descriptions(descs)
        metrics = retrieval_metrics(descs, index, list(range(len(descs))),
                                    ks=(1, 5))
        assert metrics["recall@5"] >= metrics["recall@1"]

    def test_len(self):
        index = ScenarioMiner()
        index.add_descriptions(self.descriptions())
        assert len(index) == 3

    def test_add_batch_twice_assigns_disjoint_ids(self):
        """Regression: a second batch restarted clip ids at 0,
        overwriting the first batch instead of extending the index."""
        descs = self.descriptions()
        index = ScenarioMiner()
        assert index.add_descriptions(descs[:2]) == [0, 1]
        assert index.add_descriptions(descs[2:]) == [2]
        assert len(index) == 3
        assert index.rank(descs[2], top_k=1)[0].tolist() == [2]
        metrics = retrieval_metrics(descs, index, [0, 1, 2], ks=(1,))
        assert metrics["recall@1"] == 1.0


class TestIndexRegressions:
    """Pins for the cached-matrix query fix."""

    def _desc(self, i):
        scenes = ("straight-road", "intersection")
        actions = ("stop", "turn-left", "drive-straight", "decelerate")
        return ScenarioDescription(scene=scenes[i % 2],
                                   ego_action=actions[(i // 2) % 4])

    def test_retrieval_cached_matrix_ranking_identical(self):
        """The cached stacked matrix must rank bit-identically to
        re-stacking per query (the old behaviour)."""
        from repro.core.retrieval import topk_indices
        from repro.sdl import sdl_vector

        descs = [self._desc(i) for i in range(24)]
        index = ScenarioMiner()
        index.add_descriptions(descs)
        for qi in (0, 5, 11):
            q = sdl_vector(descs[qi])
            matrix = np.stack([sdl_vector(d) for d in descs])
            norms = (np.linalg.norm(matrix, axis=1)
                     * max(np.linalg.norm(q), 1e-9))
            scores = matrix @ q / np.maximum(norms, 1e-9)
            expected = list(topk_indices(scores, 24))
            assert index.rank(descs[qi], top_k=24)[0].tolist() == expected

    def test_retrieval_matrix_reused_then_invalidated(self):
        index = ScenarioMiner()
        index.add_descriptions([self._desc(i) for i in range(6)])
        index.rank(self._desc(0), top_k=3)
        matrix = index._stacked[0]
        assert matrix is not None
        index.rank(self._desc(1), top_k=3)
        assert index._stacked[0] is matrix  # reused, not re-stacked
        index.add_descriptions([self._desc(6)])
        assert index._stacked is None  # append invalidates
        index.rank(self._desc(0), top_k=3)
        assert index._stacked[0].shape[0] == 7

    def test_miner_cached_scores_bit_identical(self, trained_extractor):
        from repro.sdl import sdl_vector

        extractor, dataset = trained_extractor
        miner = ScenarioMiner(extractor)
        miner.index_descriptions(dataset.descriptions)
        query = dataset.descriptions[0]
        q = sdl_vector(query)
        matrix = np.stack([sdl_vector(d) for d in dataset.descriptions])
        denom = np.linalg.norm(matrix, axis=1) * np.linalg.norm(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            naive = np.where(denom == 0.0, 0.0, matrix @ q / denom)
        naive = np.clip(naive, 0.0, 1.0)

        def scores():
            by_position = np.empty_like(naive)
            positions, ranked = miner.rank(query, miner.size)
            by_position[positions] = ranked
            return by_position

        first = scores()
        cached = miner._stacked[0]
        again = scores()  # served from the cached matrix
        assert miner._stacked[0] is cached
        assert np.array_equal(first, naive)
        assert np.array_equal(again, naive)
        assert [h.score for h in miner.query(query, top_k=miner.size)] \
            == sorted(naive.tolist(), reverse=True)

    def test_miner_matrix_invalidated_on_append_and_reindex(
            self, trained_extractor):
        extractor, dataset = trained_extractor
        miner = ScenarioMiner(extractor)
        miner.index_descriptions(dataset.descriptions[:8])
        miner.query(dataset.descriptions[0], top_k=2)
        matrix = miner._stacked[0]
        assert matrix is not None
        miner.query(dataset.descriptions[1], top_k=2)
        assert miner._stacked[0] is matrix
        miner.add_descriptions(dataset.descriptions[8:10])
        assert miner._stacked is None
        assert len(miner.rank(dataset.descriptions[0], 50)[0]) == 10
        assert miner._stacked[0].shape[0] == 10
        miner.index_descriptions(dataset.descriptions[:4])
        assert miner._stacked is None
        assert len(miner.rank(dataset.descriptions[0], 50)[0]) == 4
        assert miner._stacked[0].shape[0] == 4
