"""Dataset label statistics: tag frequencies and imbalance.

Corpus-inspection tooling for SDL-annotated datasets — the analogue of
the dataset-statistics tables driving-video papers report, exposed via
``python -m repro.cli stats``.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.sdl.description import ScenarioDescription
from repro.sdl.vocabulary import (
    ACTOR_ACTIONS,
    ACTOR_TYPES,
    EGO_ACTIONS,
    SCENES,
)


def tag_frequencies(descriptions: Sequence[ScenarioDescription]
                    ) -> Dict[str, Dict[str, float]]:
    """Per-group relative tag frequencies over a corpus."""
    n = len(descriptions)
    if n == 0:
        raise ValueError("empty corpus")
    groups: Dict[str, Dict[str, float]] = {
        "scene": {tag: 0.0 for tag in SCENES},
        "ego_action": {tag: 0.0 for tag in EGO_ACTIONS},
        "actors": {tag: 0.0 for tag in ACTOR_TYPES},
        "actor_actions": {tag: 0.0 for tag in ACTOR_ACTIONS},
    }
    for desc in descriptions:
        groups["scene"][desc.scene] += 1
        groups["ego_action"][desc.ego_action] += 1
        for actor in desc.actors:
            groups["actors"][actor] += 1
        for action in desc.actor_actions:
            groups["actor_actions"][action] += 1
    for group in groups.values():
        for tag in group:
            group[tag] /= n
    return groups


def imbalance_report(descriptions: Sequence[ScenarioDescription]
                     ) -> Dict[str, float]:
    """Summary imbalance statistics: rarest/most-common multi-label tag
    rates and the ego-action entropy (nats)."""
    freqs = tag_frequencies(descriptions)
    multi = {**freqs["actors"], **freqs["actor_actions"]}
    rates = np.array([rate for rate in multi.values() if rate > 0])
    ego_rates = np.array([r for r in freqs["ego_action"].values() if r > 0])
    entropy = float(-(ego_rates * np.log(ego_rates)).sum())
    return {
        "rarest_tag_rate": float(rates.min()) if rates.size else 0.0,
        "most_common_tag_rate": float(rates.max()) if rates.size else 0.0,
        "ego_action_entropy": entropy,
        "ego_action_classes_present": int(len(ego_rates)),
    }


def format_statistics(descriptions: Sequence[ScenarioDescription]) -> str:
    """Readable multi-section statistics block."""
    freqs = tag_frequencies(descriptions)
    lines = [f"corpus: {len(descriptions)} clips"]
    for group, rates in freqs.items():
        present = {t: r for t, r in rates.items() if r > 0}
        lines.append(f"[{group}]")
        for tag, rate in sorted(present.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {tag:22s} {rate:6.1%}")
    report = imbalance_report(descriptions)
    lines.append("[imbalance]")
    for key, value in report.items():
        lines.append(f"  {key:28s} {value:.3f}")
    return "\n".join(lines)
