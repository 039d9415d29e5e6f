"""Label codec: ScenarioDescription ↔ model target/prediction arrays.

The multi-task head predicts four groups:

- ``scene`` — softmax over scenes,
- ``ego_action`` — softmax over ego manoeuvres,
- ``actors`` — sigmoid multi-label over actor types,
- ``actor_actions`` — sigmoid multi-label over actor behaviours.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.sdl.description import ScenarioDescription
from repro.sdl.vocabulary import DEFAULT_VOCABULARY, Vocabulary


class LabelCodec:
    """Encodes descriptions to training targets and decodes logits back."""

    def __init__(self, vocabulary: Vocabulary = DEFAULT_VOCABULARY) -> None:
        self.vocab = vocabulary
        self._scene_index = {s: i for i, s in enumerate(vocabulary.scenes)}
        self._ego_index = {a: i for i, a in enumerate(vocabulary.ego_actions)}
        self._actor_index = {a: i for i, a in enumerate(vocabulary.actor_types)}
        self._action_index = {a: i for i, a in
                              enumerate(vocabulary.actor_actions)}

    # -- sizes (used to build model heads) --------------------------------
    @property
    def head_sizes(self) -> Dict[str, int]:
        return {
            "scene": len(self.vocab.scenes),
            "ego_action": len(self.vocab.ego_actions),
            "actors": len(self.vocab.actor_types),
            "actor_actions": len(self.vocab.actor_actions),
        }

    # -- encoding -----------------------------------------------------------
    def encode(self, desc: ScenarioDescription) -> Dict[str, np.ndarray]:
        actors = np.zeros(len(self.vocab.actor_types), dtype=np.float32)
        for actor in desc.actors:
            actors[self._actor_index[actor]] = 1.0
        actions = np.zeros(len(self.vocab.actor_actions), dtype=np.float32)
        for action in desc.actor_actions:
            actions[self._action_index[action]] = 1.0
        return {
            "scene": np.int64(self._scene_index[desc.scene]),
            "ego_action": np.int64(self._ego_index[desc.ego_action]),
            "actors": actors,
            "actor_actions": actions,
        }

    def encode_batch(
        self, descs: Sequence[ScenarioDescription]
    ) -> Dict[str, np.ndarray]:
        if not descs:
            return {
                "scene": np.zeros(0, dtype=np.int64),
                "ego_action": np.zeros(0, dtype=np.int64),
                "actors": np.zeros((0, len(self.vocab.actor_types)),
                                   dtype=np.float32),
                "actor_actions": np.zeros(
                    (0, len(self.vocab.actor_actions)), dtype=np.float32
                ),
            }
        encoded = [self.encode(d) for d in descs]
        return {
            "scene": np.array([e["scene"] for e in encoded], dtype=np.int64),
            "ego_action": np.array([e["ego_action"] for e in encoded],
                                   dtype=np.int64),
            "actors": np.stack([e["actors"] for e in encoded]),
            "actor_actions": np.stack([e["actor_actions"] for e in encoded]),
        }

    # -- decoding ----------------------------------------------------------
    def decode(self, logits: Dict[str, np.ndarray],
               threshold: float = 0.5) -> ScenarioDescription:
        """Decode one clip's logits (1-D arrays per head)."""
        scene = self.vocab.scenes[int(np.argmax(logits["scene"]))]
        ego = self.vocab.ego_actions[int(np.argmax(logits["ego_action"]))]
        actor_probs = _sigmoid(np.asarray(logits["actors"]))
        action_probs = _sigmoid(np.asarray(logits["actor_actions"]))
        actors = frozenset(
            a for a, p in zip(self.vocab.actor_types, actor_probs)
            if p >= threshold
        )
        actions = frozenset(
            a for a, p in zip(self.vocab.actor_actions, action_probs)
            if p >= threshold
        )
        return ScenarioDescription(scene=scene, ego_action=ego,
                                   actors=actors, actor_actions=actions)

    def decode_batch(self, logits: Dict[str, np.ndarray],
                     threshold: float = 0.5) -> List[ScenarioDescription]:
        """Decode a batch of logits (``(N, K)`` arrays per head).

        Row for row equal to :meth:`decode`, but argmax and thresholding
        run on whole matrices and each distinct description is built
        once per call; rows that decode alike share one object."""
        keys = zip(
            np.argmax(np.asarray(logits["scene"]), axis=-1).tolist(),
            np.argmax(np.asarray(logits["ego_action"]), axis=-1).tolist(),
            map(tuple, (_sigmoid(np.asarray(logits["actors"]))
                        >= threshold).tolist()),
            map(tuple, (_sigmoid(np.asarray(logits["actor_actions"]))
                        >= threshold).tolist()),
        )
        built: Dict[tuple, ScenarioDescription] = {}
        out = []
        for key in keys:
            desc = built.get(key)
            if desc is None:
                desc = built[key] = self._description(*key)
            out.append(desc)
        return out

    def _description(self, scene: int, ego: int,
                     actor_flags: Sequence[bool],
                     action_flags: Sequence[bool]) -> ScenarioDescription:
        """The description with these head indices and tag flags."""
        vocab = self.vocab
        return ScenarioDescription(
            scene=vocab.scenes[scene],
            ego_action=vocab.ego_actions[ego],
            actors=frozenset(a for a, on in zip(vocab.actor_types,
                                                actor_flags) if on),
            actor_actions=frozenset(a for a, on in zip(vocab.actor_actions,
                                                       action_flags) if on),
        )

    # -- label-space transforms -------------------------------------------
    def mirror_targets(self, targets: Dict[str, np.ndarray]
                       ) -> Dict[str, np.ndarray]:
        """Remap a batch of encoded targets under horizontal flip."""
        ego = targets["ego_action"].copy()
        remap = np.arange(len(self.vocab.ego_actions))
        for i, action in enumerate(self.vocab.ego_actions):
            mirrored = self.vocab.mirrored_ego_action(action)
            remap[i] = self._ego_index[mirrored]
        return {
            "scene": targets["scene"],
            "ego_action": remap[ego],
            "actors": targets["actors"],
            "actor_actions": targets["actor_actions"],
        }


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))
