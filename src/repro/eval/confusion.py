"""Confusion analysis: the class confusion matrix."""

from __future__ import annotations

import numpy as np


def confusion_matrix(predictions: np.ndarray, targets: np.ndarray,
                     n_classes: int) -> np.ndarray:
    """Counts matrix ``M[i, j]`` = samples of true class ``i`` predicted
    as ``j``."""
    predictions = np.asarray(predictions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must align")
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (targets, predictions), 1)
    return matrix
