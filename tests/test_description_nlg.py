"""Edge-case tests for sentence generation and retrieval tie handling."""

import numpy as np
import pytest

from repro.core import ScenarioMiner
from repro.sdl import ScenarioDescription
from repro.sdl.vocabulary import ACTOR_ACTIONS, EGO_ACTIONS


class TestSentenceGeneration:
    def test_every_ego_action_has_phrase(self):
        for action in EGO_ACTIONS:
            desc = ScenarioDescription(scene="straight-road",
                                       ego_action=action)
            sentence = desc.to_sentence()
            assert sentence[0].isupper()
            assert sentence.endswith(".")
            assert "ego vehicle" in sentence

    def test_every_actor_action_has_phrase(self):
        for action in ACTOR_ACTIONS:
            actors = {"pedestrian"} if action == "crossing" else {"car"}
            desc = ScenarioDescription(
                scene="straight-road", ego_action="drive-straight",
                actors=frozenset(actors),
                actor_actions=frozenset({action}),
            )
            assert " while " in desc.to_sentence()

    def test_multiple_actions_joined_with_and(self):
        desc = ScenarioDescription(
            scene="straight-road", ego_action="decelerate",
            actors=frozenset({"car"}),
            actor_actions=frozenset({"leading", "braking"}),
        )
        assert " and " in desc.to_sentence()

    def test_implied_actor_not_listed_as_residual(self):
        """'car' implied by 'leading' should not appear in the residual
        visible-actors clause."""
        desc = ScenarioDescription(
            scene="straight-road", ego_action="drive-straight",
            actors=frozenset({"car"}),
            actor_actions=frozenset({"leading"}),
        )
        assert "visible:" not in desc.to_sentence()

    def test_unimplied_actor_listed(self):
        desc = ScenarioDescription(
            scene="intersection", ego_action="stop",
            actors=frozenset({"traffic-light"}),
        )
        assert "visible: traffic-light" in desc.to_sentence()

    def test_sentences_distinguish_descriptions(self):
        a = ScenarioDescription(scene="straight-road",
                                ego_action="lane-change-left")
        b = ScenarioDescription(scene="straight-road",
                                ego_action="lane-change-right")
        assert a.to_sentence() != b.to_sentence()


class TestRetrievalTies:
    def test_stable_order_for_identical_descriptions(self):
        desc = ScenarioDescription(scene="straight-road",
                                   ego_action="stop")
        index = ScenarioMiner()
        index.add_descriptions([desc] * 4)
        # Identical embeddings: stable sort keeps insertion order.
        assert index.rank(desc, top_k=4)[0].tolist() == [0, 1, 2, 3]

    def test_distinct_query_prefers_match_over_ties(self):
        stop = ScenarioDescription(scene="straight-road",
                                   ego_action="stop")
        turn = ScenarioDescription(scene="intersection",
                                   ego_action="turn-left")
        index = ScenarioMiner()
        index.add_descriptions([stop, turn, stop])
        ranked, _ = index.rank(turn, top_k=3)
        assert ranked[0] == 1
