"""SDL tag vocabularies (Scene / Actors / Ego action / Actor actions)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

SCENES: Tuple[str, ...] = (
    "straight-road",
    "intersection",
)

ACTOR_TYPES: Tuple[str, ...] = (
    "car",
    "pedestrian",
    "traffic-light",
)

# Mutually exclusive primary ego manoeuvre, ordered by annotation priority
# (earlier entries win when several conditions hold).
EGO_ACTIONS: Tuple[str, ...] = (
    "turn-left",
    "turn-right",
    "lane-change-left",
    "lane-change-right",
    "stop",
    "decelerate",
    "accelerate",
    "drive-straight",
)

# Multi-label behaviours of the other actors.
ACTOR_ACTIONS: Tuple[str, ...] = (
    "leading",
    "braking",
    "cutting-in",
    "crossing",
    "oncoming",
    "stopped",
)

# Left/right tag pairs swapped under horizontal mirroring (used by the
# flip augmentation so geometry and labels stay consistent).
MIRROR_PAIRS = (
    ("turn-left", "turn-right"),
    ("lane-change-left", "lane-change-right"),
)


@dataclass(frozen=True)
class Vocabulary:
    """A bundled, immutable view of the four tag sets."""

    scenes: Tuple[str, ...] = SCENES
    actor_types: Tuple[str, ...] = ACTOR_TYPES
    ego_actions: Tuple[str, ...] = EGO_ACTIONS
    actor_actions: Tuple[str, ...] = ACTOR_ACTIONS

    def mirrored_ego_action(self, action: str) -> str:
        """The ego-action tag after a horizontal flip of the video."""
        for left, right in MIRROR_PAIRS:
            if action == left:
                return right
            if action == right:
                return left
        return action

    @property
    def total_tags(self) -> int:
        return (len(self.scenes) + len(self.actor_types)
                + len(self.ego_actions) + len(self.actor_actions))

    @cached_property
    def content_hash(self) -> str:
        """Stable digest of the four tag sets (order-sensitive).

        Checkpoints embed this so a model trained against one vocabulary
        is never silently decoded with another (tag order defines the
        label index space).  Computed once per instance: the tag tuples
        are immutable, and serving reads it for every cache key.
        """
        payload = json.dumps(
            {
                "scenes": list(self.scenes),
                "actor_types": list(self.actor_types),
                "ego_actions": list(self.ego_actions),
                "actor_actions": list(self.actor_actions),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


DEFAULT_VOCABULARY = Vocabulary()
