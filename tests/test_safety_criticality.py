"""Tests for surrogate safety metrics and criticality triage."""

import numpy as np
import pytest

from repro.core.criticality import (
    TAG_CRITICALITY,
    description_criticality,
    rank_descriptions,
    triage_precision,
)
from repro.sdl import ScenarioDescription
from repro.sim import simulate_scenario
from repro.sim.safety import SafetyMetrics, compute_safety_metrics


class TestSafetyMetrics:
    def test_free_drive_is_benign(self):
        m = compute_safety_metrics(
            simulate_scenario("free-drive", seed=0).snapshots
        )
        assert m.min_ttc == np.inf
        assert m.max_ego_decel < 0.5
        assert m.criticality_score() < 0.1

    def test_lead_brake_is_critical(self):
        m = compute_safety_metrics(
            simulate_scenario("lead-brake", seed=1).snapshots
        )
        assert m.min_ttc < 5.0
        assert m.max_ego_decel > 2.0
        assert m.criticality_score() > 0.3

    def test_pedestrian_distance_tracked(self):
        m = compute_safety_metrics(
            simulate_scenario("pedestrian-crossing", seed=1).snapshots
        )
        assert m.min_ped_distance < 10.0

    def test_criticality_orders_families(self):
        benign = compute_safety_metrics(
            simulate_scenario("free-drive", seed=2).snapshots
        ).criticality_score()
        critical = compute_safety_metrics(
            simulate_scenario("lead-brake", seed=2).snapshots
        ).criticality_score()
        assert critical > benign + 0.2

    def test_score_bounded(self):
        m = SafetyMetrics(min_ttc=0.0, min_gap=0.0, max_ego_decel=100.0,
                          min_ped_distance=0.0)
        assert 0.0 <= m.criticality_score() <= 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            compute_safety_metrics([])


class TestDescriptionCriticality:
    def desc(self, ego="drive-straight", actions=()):
        return ScenarioDescription(
            scene="straight-road", ego_action=ego,
            actors=frozenset({"car"} if actions else set()),
            actor_actions=frozenset(actions),
        )

    def test_benign_scores_low(self):
        assert description_criticality(self.desc()) < 0.2

    def test_braking_scores_higher_than_leading(self):
        braking = description_criticality(
            self.desc(ego="decelerate", actions={"braking", "leading"})
        )
        leading = description_criticality(
            self.desc(actions={"leading"})
        )
        assert braking > leading

    def test_monotone_in_tags(self):
        base = description_criticality(self.desc(actions={"leading"}))
        more = description_criticality(
            self.desc(ego="stop", actions={"leading", "braking"})
        )
        assert more > base

    def test_bounded(self):
        maxed = ScenarioDescription(
            scene="straight-road", ego_action="stop",
            actors=frozenset({"car", "pedestrian"}),
            actor_actions=frozenset(TAG_CRITICALITY) - {"stop",
                                                        "decelerate"},
        )
        assert 0.0 <= description_criticality(maxed) <= 1.0

    def test_rank_descriptions_order(self):
        descs = [self.desc(),
                 self.desc(ego="stop", actions={"braking", "leading"})]
        assert rank_descriptions(descs)[0] == 1

    def test_triage_precision(self):
        assert triage_precision([0, 1, 2], [0, 2, 1], k=2) == 0.5
        with pytest.raises(ValueError):
            triage_precision([0], [0], k=0)
