"""Tests for the SDL vocabulary, descriptions, codec and similarity."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sdl import (
    ACTOR_ACTIONS,
    ACTOR_TYPES,
    EGO_ACTIONS,
    SCENES,
    LabelCodec,
    ScenarioDescription,
    Vocabulary,
    sdl_similarity,
    sdl_vector,
)


def desc(scene="straight-road", ego="drive-straight", actors=(),
         actions=()):
    return ScenarioDescription(scene=scene, ego_action=ego,
                               actors=frozenset(actors),
                               actor_actions=frozenset(actions))


class TestVocabulary:
    def test_tag_sets_disjoint(self):
        groups = [SCENES, ACTOR_TYPES, EGO_ACTIONS, ACTOR_ACTIONS]
        all_tags = [t for g in groups for t in g]
        assert len(all_tags) == len(set(all_tags))

    def test_total_tags(self):
        v = Vocabulary()
        assert v.total_tags == len(SCENES) + len(ACTOR_TYPES) \
            + len(EGO_ACTIONS) + len(ACTOR_ACTIONS)

    def test_content_hash_memoized_and_pickle_stable(self):
        """The digest is computed once per instance, and a fresh or a
        pickled-then-unpickled vocabulary (before or after the first
        read) gives the same value as before it was memoized."""
        fresh = Vocabulary()
        assert fresh.content_hash == "a568a4adc4db818b"
        assert "content_hash" in vars(fresh)
        assert fresh.content_hash is fresh.content_hash
        unread = pickle.loads(pickle.dumps(Vocabulary()))
        assert unread.content_hash == fresh.content_hash
        assert pickle.loads(pickle.dumps(fresh)).content_hash \
            == fresh.content_hash
        assert Vocabulary(scenes=("a", "b")).content_hash \
            == "a0d5acd52d412822"

    def test_mirror_pairs(self):
        v = Vocabulary()
        assert v.mirrored_ego_action("turn-left") == "turn-right"
        assert v.mirrored_ego_action("lane-change-right") == "lane-change-left"
        assert v.mirrored_ego_action("stop") == "stop"

    def test_mirror_involution(self):
        v = Vocabulary()
        for action in EGO_ACTIONS:
            assert v.mirrored_ego_action(v.mirrored_ego_action(action)) \
                == action


class TestDescription:
    def test_rejects_unknown_scene(self):
        with pytest.raises(ValueError):
            desc(scene="moon-base")

    def test_rejects_unknown_ego_action(self):
        with pytest.raises(ValueError):
            desc(ego="moonwalk")

    def test_rejects_unknown_actor(self):
        with pytest.raises(ValueError):
            desc(actors={"unicorn"})

    def test_rejects_unknown_actor_action(self):
        with pytest.raises(ValueError):
            desc(actions={"levitating"})

    def test_json_roundtrip(self):
        d = desc(scene="intersection", ego="turn-left",
                 actors={"car", "traffic-light"}, actions={"oncoming"})
        assert ScenarioDescription.from_json(d.to_json()) == d

    def test_dict_roundtrip(self):
        d = desc(actions={"leading", "braking"}, actors={"car"})
        assert ScenarioDescription.from_dict(d.to_dict()) == d

    def test_frozen_and_hashable(self):
        d = desc()
        assert d in {d}
        with pytest.raises(Exception):
            d.scene = "intersection"

    def test_sentence_mentions_scene_and_action(self):
        d = desc(scene="intersection", ego="turn-left")
        s = d.to_sentence()
        assert "intersection" in s
        assert "turns left" in s

    def test_sentence_mentions_actor_actions(self):
        d = desc(actors={"pedestrian"}, actions={"crossing"})
        assert "pedestrian crosses" in d.to_sentence()

    def test_sentence_lists_residual_actors(self):
        d = desc(actors={"traffic-light"})
        assert "traffic-light" in d.to_sentence()

    def test_mirrored_swaps_direction(self):
        d = desc(ego="lane-change-left")
        assert d.mirrored().ego_action == "lane-change-right"
        assert d.mirrored().mirrored() == d

    def test_all_tags(self):
        d = desc(scene="intersection", ego="stop", actors={"car"},
                 actions={"leading"})
        assert d.all_tags() == {"intersection", "stop", "car", "leading"}


class TestCodec:
    def setup_method(self):
        self.codec = LabelCodec()

    def test_head_sizes(self):
        sizes = self.codec.head_sizes
        assert sizes["scene"] == len(SCENES)
        assert sizes["ego_action"] == len(EGO_ACTIONS)
        assert sizes["actors"] == len(ACTOR_TYPES)
        assert sizes["actor_actions"] == len(ACTOR_ACTIONS)

    def test_encode_shapes_and_types(self):
        e = self.codec.encode(desc(actors={"car"}, actions={"leading"}))
        assert e["scene"].dtype == np.int64
        assert e["actors"].shape == (len(ACTOR_TYPES),)
        assert e["actors"].sum() == 1.0

    def test_encode_decode_roundtrip(self):
        d = desc(scene="intersection", ego="turn-right",
                 actors={"car", "pedestrian"}, actions={"crossing"})
        e = self.codec.encode(d)
        logits = {
            "scene": _one_hot_logits(e["scene"], len(SCENES)),
            "ego_action": _one_hot_logits(e["ego_action"], len(EGO_ACTIONS)),
            "actors": (e["actors"] * 2 - 1) * 10.0,
            "actor_actions": (e["actor_actions"] * 2 - 1) * 10.0,
        }
        assert self.codec.decode(logits) == d

    def test_encode_batch_shapes(self):
        descs = [desc(), desc(ego="stop", actors={"car"})]
        batch = self.codec.encode_batch(descs)
        assert batch["scene"].shape == (2,)
        assert batch["actors"].shape == (2, len(ACTOR_TYPES))

    def test_decode_batch_length(self):
        batch = {
            "scene": np.zeros((3, len(SCENES))),
            "ego_action": np.zeros((3, len(EGO_ACTIONS))),
            "actors": np.full((3, len(ACTOR_TYPES)), -5.0),
            "actor_actions": np.full((3, len(ACTOR_ACTIONS)), -5.0),
        }
        out = self.codec.decode_batch(batch)
        assert len(out) == 3
        assert out[0].actors == frozenset()

    def test_decode_threshold(self):
        logits = {
            "scene": np.array([1.0, 0.0]),
            "ego_action": np.zeros(len(EGO_ACTIONS)),
            "actors": np.array([0.1, -5.0, -5.0]),  # sigmoid(0.1) ~ 0.52
            "actor_actions": np.full(len(ACTOR_ACTIONS), -5.0),
        }
        low = self.codec.decode(logits, threshold=0.5)
        high = self.codec.decode(logits, threshold=0.9)
        assert "car" in low.actors
        assert "car" not in high.actors

    def test_mirror_targets_consistent_with_description(self):
        d = desc(ego="lane-change-left")
        batch = self.codec.encode_batch([d])
        mirrored = self.codec.mirror_targets(batch)
        expected = self.codec.encode(d.mirrored())
        assert mirrored["ego_action"][0] == expected["ego_action"]


def _random_logits(rng, rows, dtype=np.float32):
    return {
        "scene": rng.normal(size=(rows, len(SCENES))).astype(dtype),
        "ego_action": rng.normal(size=(rows, len(EGO_ACTIONS))).astype(dtype),
        "actors": rng.normal(size=(rows, len(ACTOR_TYPES))).astype(dtype),
        "actor_actions": rng.normal(
            size=(rows, len(ACTOR_ACTIONS))).astype(dtype),
    }


class TestDecodeBatchVectorised:
    """``decode_batch`` decodes whole matrices at once; every row must
    equal the per-row :meth:`LabelCodec.decode`."""

    def setup_method(self):
        self.codec = LabelCodec()

    def assert_rowwise(self, logits, threshold):
        batch = self.codec.decode_batch(logits, threshold=threshold)
        rows = [self.codec.decode({k: v[i] for k, v in logits.items()},
                                  threshold=threshold)
                for i in range(len(logits["scene"]))]
        assert batch == rows
        return batch

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_logits(self, threshold, dtype):
        rng = np.random.default_rng(0)
        self.assert_rowwise(_random_logits(rng, 64, dtype), threshold)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40),
           threshold=st.sampled_from([0.3, 0.5, 0.9]),
           scale=st.sampled_from([0.0, 0.5, 4.0]))
    def test_property_matches_rowwise_decode(self, seed, rows, threshold,
                                             scale):
        # scale 0.0 makes every logit 0: all-tie argmax rows and
        # sigmoid exactly 0.5 on the multi-label heads.
        logits = _random_logits(np.random.default_rng(seed), rows,
                                np.float64)
        self.assert_rowwise({k: v * scale for k, v in logits.items()},
                            threshold)

    def test_argmax_ties_pick_first_index(self):
        logits = _random_logits(np.random.default_rng(1), 3)
        logits["scene"][:] = 1.0
        logits["ego_action"][:] = 0.0
        logits["ego_action"][:, [2, 4]] = 3.0
        out = self.assert_rowwise(logits, 0.5)
        assert {d.scene for d in out} == {SCENES[0]}
        assert {d.ego_action for d in out} == {EGO_ACTIONS[2]}

    def test_zero_logit_at_half_threshold_keeps_tag(self):
        logits = _random_logits(np.random.default_rng(2), 2)
        logits["actors"][:] = -9.0
        logits["actors"][:, 0] = 0.0  # sigmoid(0) == 0.5 exactly
        logits["actor_actions"][:] = 0.0
        out = self.assert_rowwise(logits, 0.5)
        assert all(d.actors == {ACTOR_TYPES[0]} for d in out)
        assert all(d.actor_actions == set(ACTOR_ACTIONS) for d in out)

    def test_rows_without_tags(self):
        logits = _random_logits(np.random.default_rng(3), 4)
        logits["actors"][:] = -9.0
        logits["actor_actions"][:] = -9.0
        out = self.assert_rowwise(logits, 0.5)
        assert all(not d.actors and not d.actor_actions for d in out)

    def test_empty_batch(self):
        assert self.assert_rowwise(
            _random_logits(np.random.default_rng(4), 0), 0.5) == []

    def test_equal_rows_share_one_description(self):
        logits = _random_logits(np.random.default_rng(5), 1)
        out = self.codec.decode_batch(
            {k: np.repeat(v, 5, axis=0) for k, v in logits.items()})
        assert all(d is out[0] for d in out)


class TestSimilarity:
    def test_identical_is_one(self):
        d = desc(actors={"car"}, actions={"leading"})
        assert sdl_similarity(d, d) == pytest.approx(1.0)

    def test_symmetric(self):
        a = desc(ego="stop", actors={"car"})
        b = desc(ego="turn-left", scene="intersection")
        assert sdl_similarity(a, b) == pytest.approx(sdl_similarity(b, a))

    def test_close_beats_far(self):
        query = desc(ego="stop", actors={"pedestrian"},
                     actions={"crossing"})
        close = desc(ego="stop", actors={"pedestrian"}, actions={"crossing"})
        far = desc(scene="intersection", ego="turn-left", actors={"car"})
        assert sdl_similarity(query, close) > sdl_similarity(query, far)

    def test_vector_length_fixed(self):
        a = sdl_vector(desc())
        b = sdl_vector(desc(scene="intersection", ego="turn-left",
                            actors={"car", "pedestrian", "traffic-light"},
                            actions=set(ACTOR_ACTIONS)))
        assert a.shape == b.shape

    def test_ego_action_weighted_higher_than_scene(self):
        base = desc(scene="straight-road", ego="stop")
        scene_diff = desc(scene="intersection", ego="stop")
        ego_diff = desc(scene="straight-road", ego="drive-straight")
        assert sdl_similarity(base, scene_diff) > sdl_similarity(base, ego_diff)


def _one_hot_logits(index, size):
    logits = np.full(size, -10.0, dtype=np.float32)
    logits[int(index)] = 10.0
    return logits
