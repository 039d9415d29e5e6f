"""Safety / criticality metrics over recorded scenarios.

Computes the standard surrogate safety measures used to rank driving
scenarios by criticality — time-to-collision (TTC), minimum bumper gap,
and maximum required ego deceleration — from ground-truth snapshots.
These power the "mine the most critical scenarios" workflow (Figure 8)
and the ``critical`` SDL annotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.sim.world import AgentState, Snapshot


@dataclass(frozen=True)
class SafetyMetrics:
    """Clip-level surrogate safety measures (lower TTC/gap = more
    critical)."""

    min_ttc: float            # seconds; inf when never closing
    min_gap: float            # metres (bumper-to-bumper, lead corridor)
    max_ego_decel: float      # m/s^2, positive number
    min_ped_distance: float   # metres; inf without pedestrians

    def criticality_score(self) -> float:
        """Scalar in [0, 1]; higher = more critical.

        A smooth combination of inverse TTC, inverse gap and braking
        intensity, each squashed to [0, 1).
        """
        ttc_term = 1.0 / (1.0 + max(self.min_ttc, 0.0) / 3.0)
        gap_term = 1.0 / (1.0 + max(self.min_gap, 0.0) / 5.0)
        brake_term = min(self.max_ego_decel / 5.0, 1.0)
        ped_term = 1.0 / (1.0 + max(self.min_ped_distance, 0.0) / 5.0)
        return float(np.clip(
            0.35 * ttc_term + 0.25 * gap_term + 0.25 * brake_term
            + 0.15 * ped_term, 0.0, 1.0,
        ))


def _lead_gap_and_closing(ego: AgentState, agent: AgentState,
                          lane_width: float):
    """Bumper gap and closing speed if ``agent`` leads the ego."""
    if agent.route_group != ego.route_group:
        return None
    if abs(agent.lane_offset - ego.lane_offset) > lane_width / 2:
        return None
    gap = agent.s - ego.s - (agent.length + ego.length) / 2
    if gap <= 0 or gap > 80.0:
        return None
    closing = ego.speed - agent.speed
    return gap, closing


def compute_safety_metrics(snapshots: Sequence[Snapshot],
                           lane_width: float = 3.5,
                           dt: float = 0.1) -> SafetyMetrics:
    """Scan a recording for its worst-case safety measures."""
    if not snapshots:
        raise ValueError("empty snapshot sequence")
    min_ttc = np.inf
    min_gap = np.inf
    min_ped = np.inf
    speeds: List[float] = []
    for snap in snapshots:
        ego = next((a for a in snap.agents.values() if a.is_ego), None)
        if ego is None:
            raise LookupError("snapshot without ego agent")
        speeds.append(ego.speed)
        for agent in snap.agents.values():
            if agent.is_ego:
                continue
            if agent.kind == "pedestrian":
                distance = float(np.hypot(agent.x - ego.x,
                                          agent.y - ego.y))
                min_ped = min(min_ped, distance)
                continue
            lead = _lead_gap_and_closing(ego, agent, lane_width)
            if lead is None:
                continue
            gap, closing = lead
            min_gap = min(min_gap, gap)
            if closing > 0.1:
                min_ttc = min(min_ttc, gap / closing)
    accel = np.gradient(np.array(speeds), dt)
    max_decel = float(max(0.0, -accel.min()))
    return SafetyMetrics(
        min_ttc=float(min_ttc),
        min_gap=float(min_gap),
        max_ego_decel=max_decel,
        min_ped_distance=float(min_ped),
    )
