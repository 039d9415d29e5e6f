"""Confidence calibration and multi-label threshold tuning.

Deployment-facing analyses for the extractor: how trustworthy are the
reported confidences (ECE / reliability bins), and what per-tag decision
thresholds maximise validation F1 (instead of a global 0.5).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.train.metrics import multilabel_prf


def reliability_bins(confidences: np.ndarray, correct: np.ndarray,
                     n_bins: int = 10) -> List[Dict[str, float]]:
    """Equal-width confidence bins with per-bin accuracy.

    ``confidences``: predicted max-probabilities in [0, 1] (a NaN
    falls in no bin, so it counts nowhere); ``correct``: boolean
    per-sample hit indicators.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if confidences.shape != correct.shape:
        raise ValueError("confidences and correct must align")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    bins = []
    for low, high in zip(edges[:-1], edges[1:]):
        mask = (confidences > low) & (confidences <= high)
        if low == 0.0:
            mask |= confidences == 0.0
        count = int(mask.sum())
        bins.append({
            "low": float(low),
            "high": float(high),
            "count": count,
            "confidence": float(confidences[mask].mean()) if count else 0.0,
            "accuracy": float(correct[mask].mean()) if count else 0.0,
        })
    return bins


def expected_calibration_error(confidences: np.ndarray,
                               correct: np.ndarray,
                               n_bins: int = 10) -> float:
    """ECE: count-weighted |accuracy − confidence| over bins."""
    bins = reliability_bins(confidences, correct, n_bins)
    total = sum(b["count"] for b in bins)
    if total == 0:
        return 0.0
    return float(sum(
        b["count"] * abs(b["accuracy"] - b["confidence"]) for b in bins
    ) / total)


def tune_thresholds(probs: np.ndarray, targets: np.ndarray,
                    grid: np.ndarray = None) -> np.ndarray:
    """Per-tag thresholds maximising F1 on a validation set.

    Returns an array of shape ``(K,)`` usable directly as the
    ``threshold`` argument of :func:`~repro.train.metrics.multilabel_prf`
    (the comparison broadcasts per column).
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=bool)
    if grid is None:
        grid = np.linspace(0.05, 0.95, 19)
    n_tags = probs.shape[1]
    thresholds = np.full(n_tags, 0.5)
    for k in range(n_tags):
        best_f1 = -1.0
        for threshold in grid:
            stats = multilabel_prf(probs[:, k:k + 1],
                                   targets[:, k:k + 1], threshold)
            f1 = float(stats["f1"][0])
            if f1 > best_f1:
                best_f1 = f1
                thresholds[k] = threshold
    return thresholds
