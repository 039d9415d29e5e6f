"""Temporal localization evaluation (Figure 6).

Turns sliding-window extraction results into frame-level tag
predictions and scores them against a ground-truth
:class:`~repro.sdl.timeline.TagTimeline` with frame-level
precision/recall/F1 per tag.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.pipeline import ExtractionResult
from repro.sdl.timeline import (
    TIMELINE_TAGS,
    TagTimeline,
    description_to_timeline_tags,
)


def predictions_to_frame_tags(results: Sequence[ExtractionResult],
                              total_frames: int) -> Dict[str, np.ndarray]:
    """Union of window tags over the frames each window covers."""
    tracks = {tag: np.zeros(total_frames, dtype=bool)
              for tag in TIMELINE_TAGS}
    for result in results:
        start, end = result.frame_range
        for tag in description_to_timeline_tags(result.description):
            tracks[tag][start:end] = True
    return tracks


def frame_level_metrics(predicted: Dict[str, np.ndarray],
                        truth: TagTimeline) -> Dict[str, Dict[str, float]]:
    """Per-tag frame precision/recall/F1 plus micro aggregates.

    Tags absent from both prediction and truth are skipped (they carry
    no information for the drive under evaluation).
    """
    per_tag: Dict[str, Dict[str, float]] = {}
    total_tp = total_fp = total_fn = 0
    for tag in TIMELINE_TAGS:
        pred = predicted[tag]
        true = truth.tracks[tag][:len(pred)]
        pred = pred[:len(true)]
        tp = int((pred & true).sum())
        fp = int((pred & ~true).sum())
        fn = int((~pred & true).sum())
        if tp + fp + fn == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_tag[tag] = {"precision": precision, "recall": recall,
                        "f1": f1, "support": int(true.sum())}
        total_tp += tp
        total_fp += fp
        total_fn += fn
    micro_p = total_tp / (total_tp + total_fp) if total_tp + total_fp else 0.0
    micro_r = total_tp / (total_tp + total_fn) if total_tp + total_fn else 0.0
    micro_f1 = (2 * micro_p * micro_r / (micro_p + micro_r)
                if micro_p + micro_r else 0.0)
    per_tag["_micro"] = {"precision": micro_p, "recall": micro_r,
                         "f1": micro_f1,
                         "support": total_tp + total_fn}
    return per_tag
