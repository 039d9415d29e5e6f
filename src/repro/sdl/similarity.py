"""Scenario2Vector-style SDL embeddings and similarity measures.

A description maps to a fixed-length weighted multi-hot vector; cosine
similarity between these vectors ranks scenarios by semantic closeness.
Section weights emphasise the ego manoeuvre and actor behaviours, which
carry most of the discriminative content of a scenario.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.sdl.description import ScenarioDescription
from repro.sdl.vocabulary import DEFAULT_VOCABULARY, Vocabulary

DEFAULT_WEIGHTS: Dict[str, float] = {
    "scene": 1.0,
    "ego_action": 2.0,
    "actors": 1.0,
    "actor_actions": 1.5,
}


def sdl_vector(desc: ScenarioDescription,
               vocabulary: Vocabulary = DEFAULT_VOCABULARY,
               weights: Dict[str, float] = None) -> np.ndarray:
    """Embed a description as a weighted multi-hot vector."""
    w = dict(DEFAULT_WEIGHTS)
    if weights:
        w.update(weights)
    sections = []
    scene_vec = np.zeros(len(vocabulary.scenes), dtype=np.float32)
    scene_vec[vocabulary.scenes.index(desc.scene)] = w["scene"]
    sections.append(scene_vec)

    ego_vec = np.zeros(len(vocabulary.ego_actions), dtype=np.float32)
    ego_vec[vocabulary.ego_actions.index(desc.ego_action)] = w["ego_action"]
    sections.append(ego_vec)

    actor_vec = np.zeros(len(vocabulary.actor_types), dtype=np.float32)
    for actor in desc.actors:
        actor_vec[vocabulary.actor_types.index(actor)] = w["actors"]
    sections.append(actor_vec)

    action_vec = np.zeros(len(vocabulary.actor_actions), dtype=np.float32)
    for action in desc.actor_actions:
        action_vec[vocabulary.actor_actions.index(action)] = w["actor_actions"]
    sections.append(action_vec)

    return np.concatenate(sections)


def sdl_similarity(a: ScenarioDescription, b: ScenarioDescription,
                   vocabulary: Vocabulary = DEFAULT_VOCABULARY) -> float:
    """Cosine similarity of two SDL embeddings, in ``[0, 1]``."""
    va, vb = sdl_vector(a, vocabulary), sdl_vector(b, vocabulary)
    denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.dot(va, vb) / denom, 0.0, 1.0))
