"""Tests for calibration and threshold tuning."""

import numpy as np
import pytest

from repro.eval.calibration import (
    expected_calibration_error,
    reliability_bins,
    tune_thresholds,
)

RNG = np.random.default_rng(0)


class TestReliability:
    def test_bins_partition_samples(self):
        conf = RNG.random(200)
        correct = RNG.random(200) > 0.5
        bins = reliability_bins(conf, correct, n_bins=10)
        assert sum(b["count"] for b in bins) == 200

    def test_perfectly_calibrated_low_ece(self):
        conf = RNG.random(20_000)
        correct = RNG.random(20_000) < conf  # accuracy == confidence
        assert expected_calibration_error(conf, correct) < 0.03

    def test_overconfident_high_ece(self):
        conf = np.full(1000, 0.99)
        correct = RNG.random(1000) < 0.5
        assert expected_calibration_error(conf, correct) > 0.4

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            reliability_bins(np.zeros(3), np.zeros(4, dtype=bool))

    def test_empty_input(self):
        assert expected_calibration_error(np.zeros(0), np.zeros(0, bool)) \
            == 0.0


class TestThresholdTuning:
    def test_finds_low_threshold_for_shy_scores(self):
        """Positives scored ~0.3, negatives ~0.1: the optimal threshold
        is well below the 0.5 default."""
        n = 200
        targets = np.zeros((n, 1))
        targets[:50, 0] = 1.0
        probs = np.where(targets == 1.0,
                         0.25 + 0.1 * RNG.random((n, 1)),
                         0.05 + 0.1 * RNG.random((n, 1)))
        thresholds = tune_thresholds(probs, targets)
        assert thresholds[0] < 0.3

    def test_tuned_never_worse_on_same_split(self):
        probs = RNG.random((100, 4))
        targets = (RNG.random((100, 4)) > 0.7).astype(float)
        from repro.train.metrics import multilabel_prf

        tuned = tune_thresholds(probs, targets)
        default = multilabel_prf(probs, targets, 0.5)["macro_f1"]
        best = multilabel_prf(probs, targets, tuned)["macro_f1"]
        assert best >= default - 1e-9
