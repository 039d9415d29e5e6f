"""Tests for per-frame tag timelines and localization metrics."""

import numpy as np
import pytest

from repro.core.pipeline import ExtractionResult
from repro.eval.localization import (
    frame_level_metrics,
    predictions_to_frame_tags,
)
from repro.sdl import ScenarioDescription
from repro.sdl.timeline import (
    TIMELINE_TAGS,
    TagTimeline,
    annotate_timeline,
    description_to_timeline_tags,
)
from repro.sim import simulate_scenario


class TestAnnotateTimeline:
    def test_tracks_cover_all_tags(self):
        rec = simulate_scenario("lead-brake", seed=0)
        timeline = annotate_timeline(rec.snapshots)
        assert set(timeline.tracks) == set(TIMELINE_TAGS)
        assert timeline.length == len(rec.snapshots)

    def test_lead_brake_has_braking_interval(self):
        rec = simulate_scenario("lead-brake", seed=0)
        timeline = annotate_timeline(rec.snapshots)
        assert timeline.tracks["braking"].any()
        assert timeline.tracks["leading"].any()

    def test_braking_happens_mid_clip(self):
        """The scripted brake starts between 1.5 s and 3 s."""
        rec = simulate_scenario("lead-brake", seed=1)
        timeline = annotate_timeline(rec.snapshots)
        intervals = timeline.intervals("braking")
        assert intervals
        start, _ = intervals[0]
        assert 10 <= start <= 40  # 1.0-4.0 s at dt=0.1

    def test_lane_change_interval_is_contiguous_block(self):
        rec = simulate_scenario("lane-change-left", seed=0)
        timeline = annotate_timeline(rec.snapshots)
        intervals = timeline.intervals("lane-change")
        assert len(intervals) == 1
        start, end = intervals[0]
        assert end - start > 10  # a lane change takes ~3 s

    def test_turn_track_fires_for_turns_only(self):
        turn = annotate_timeline(
            simulate_scenario("turn-left", seed=0).snapshots
        )
        straight = annotate_timeline(
            simulate_scenario("free-drive", seed=0).snapshots
        )
        assert turn.tracks["turn"].any()
        assert not straight.tracks["turn"].any()

    def test_crossing_track_matches_ped_window(self):
        rec = simulate_scenario("pedestrian-crossing", seed=1)
        timeline = annotate_timeline(rec.snapshots)
        assert timeline.tracks["crossing"].any()

    def test_free_drive_mostly_quiet(self):
        rec = simulate_scenario("free-drive", seed=1)
        timeline = annotate_timeline(rec.snapshots)
        event_tags = [t for t in TIMELINE_TAGS
                      if t not in ("leading",)]
        active = sum(timeline.tracks[t].sum() for t in event_tags)
        assert active == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            annotate_timeline([])


class TestTagTimelineOps:
    def make(self):
        tracks = {tag: np.zeros(10, dtype=bool) for tag in TIMELINE_TAGS}
        tracks["stop"][3:6] = True
        tracks["braking"][0:2] = True
        tracks["braking"][8:10] = True
        return TagTimeline(tracks=tracks, dt=0.1)

    def test_intervals(self):
        timeline = self.make()
        assert timeline.intervals("stop") == [(3, 6)]
        assert timeline.intervals("braking") == [(0, 2), (8, 10)]
        assert timeline.intervals("turn") == []

    def test_active_tags(self):
        timeline = self.make()
        assert timeline.active_tags(4) == frozenset({"stop"})
        assert timeline.active_tags(7) == frozenset()

    def test_subsample(self):
        sub = self.make().subsample([0, 4, 9])
        assert sub.length == 3
        assert sub.tracks["stop"].tolist() == [False, True, False]

    def test_concatenate(self):
        a, b = self.make(), self.make()
        cat = TagTimeline.concatenate([a, b])
        assert cat.length == 20
        assert cat.intervals("stop") == [(3, 6), (13, 16)]

    def test_concatenate_empty_raises(self):
        with pytest.raises(ValueError):
            TagTimeline.concatenate([])


class TestDescriptionMapping:
    def test_ego_actions_map(self):
        desc = ScenarioDescription(scene="straight-road",
                                   ego_action="lane-change-left")
        assert description_to_timeline_tags(desc) == {"lane-change"}

    def test_actor_actions_pass_through(self):
        desc = ScenarioDescription(
            scene="straight-road", ego_action="decelerate",
            actors=frozenset({"car"}),
            actor_actions=frozenset({"braking", "leading"}),
        )
        tags = description_to_timeline_tags(desc)
        assert tags == {"decelerate", "braking", "leading"}

    def test_drive_straight_maps_to_nothing(self):
        desc = ScenarioDescription(scene="straight-road",
                                   ego_action="drive-straight")
        assert description_to_timeline_tags(desc) == frozenset()


class TestLocalizationMetrics:
    def result(self, start, end, ego="stop", actions=()):
        desc = ScenarioDescription(scene="straight-road", ego_action=ego,
                                   actor_actions=frozenset(actions))
        return ExtractionResult(description=desc,
                                sentence=desc.to_sentence(),
                                confidences={}, frame_range=(start, end))

    def test_predictions_union_windows(self):
        tracks = predictions_to_frame_tags(
            [self.result(0, 4), self.result(2, 6)], total_frames=8
        )
        assert tracks["stop"][:6].all()
        assert not tracks["stop"][6:].any()

    def test_perfect_predictions_score_one(self):
        truth_tracks = {tag: np.zeros(8, dtype=bool)
                        for tag in TIMELINE_TAGS}
        truth_tracks["stop"][0:4] = True
        truth = TagTimeline(tracks=truth_tracks, dt=0.1)
        pred = predictions_to_frame_tags([self.result(0, 4)], 8)
        metrics = frame_level_metrics(pred, truth)
        assert metrics["stop"]["f1"] == 1.0
        assert metrics["_micro"]["f1"] == 1.0

    def test_silent_tags_skipped(self):
        truth = TagTimeline(
            tracks={tag: np.zeros(4, dtype=bool) for tag in TIMELINE_TAGS},
            dt=0.1,
        )
        pred = {tag: np.zeros(4, dtype=bool) for tag in TIMELINE_TAGS}
        metrics = frame_level_metrics(pred, truth)
        assert set(metrics) == {"_micro"}
