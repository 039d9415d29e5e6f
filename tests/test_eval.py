"""Tests for the evaluation harness (fast, tiny scales)."""

import numpy as np
import pytest

from repro.eval import (
    ExperimentScale,
    estimate_flops,
    format_figure_series,
    format_table,
    measure_throughput,
    prepare_data,
    run_fig5_label_noise,
    run_table4_efficiency,
    train_model,
)
from repro.models import MODEL_REGISTRY, build_model

TINY = ExperimentScale(num_clips=24, frames=4, height=16, width=16,
                       dim=16, depth=1, num_heads=2, epochs=1,
                       batch_size=8)


class TestScale:
    def test_model_config_from_scale(self):
        cfg = TINY.model_config()
        assert cfg.frames == 4 and cfg.dim == 16

    def test_model_config_overrides(self):
        assert TINY.model_config(frames=8).frames == 8

    def test_train_config(self):
        assert TINY.train_config(epochs=3).epochs == 3


class TestPrepareData:
    def test_split_sizes(self):
        train, val, test = prepare_data(TINY)
        assert len(train) + len(val) + len(test) == TINY.num_clips

    def test_memoised(self):
        a = prepare_data(TINY)
        b = prepare_data(TINY)
        np.testing.assert_array_equal(a[0].videos, b[0].videos)

    def test_frames_override(self):
        train, _, _ = prepare_data(TINY, frames=2)
        assert train.videos.shape[1] == 2


class TestTrainModel:
    def test_returns_trainer_metrics_time(self):
        trainer, metrics, seconds = train_model("frame-mlp", TINY)
        assert "ego_acc" in metrics
        assert seconds > 0
        assert trainer.history


class TestEfficiency:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_flops_positive(self, name):
        model = build_model(name, TINY.model_config())
        assert estimate_flops(model) > 0

    def test_joint_more_flops_than_divided(self):
        """Joint attention is quadratic in T·N; divided factorizes it."""
        scale = ExperimentScale(frames=16, height=32, width=32, dim=48,
                                depth=2, num_heads=4)
        # Equal token granularity: tubelet_size=1 so joint sees T·N tokens.
        joint = build_model("vt-joint", scale.model_config(tubelet_size=1))
        divided = build_model("vt-divided", scale.model_config())
        assert estimate_flops(joint) > estimate_flops(divided)

    def test_throughput_fields(self):
        model = build_model("frame-mlp", TINY.model_config())
        stats = measure_throughput(model, batch_size=4, repeats=1)
        assert stats["clips_per_s"] > 0
        assert stats["ms_per_clip"] > 0

    def test_transformer_throughput_times_the_engine(self, monkeypatch):
        """Table 4 must time the forward production runs: the fused
        engine for video transformers, not the autograd forward."""
        from repro.models.engine import InferenceEngine

        calls = []
        engine_logits = InferenceEngine.logits

        def counted(self, clips, batch_size=16):
            calls.append(len(clips))
            return engine_logits(self, clips, batch_size=batch_size)

        monkeypatch.setattr(InferenceEngine, "logits", counted)
        model = build_model("vt-divided", TINY.model_config())
        measure_throughput(model, batch_size=4, repeats=2)
        assert calls == [4, 4, 4]  # warm-up + two timed repeats

    def test_table4_rows(self):
        rows = run_table4_efficiency(TINY, models=("frame-mlp", "frame-vit"))
        assert set(rows) == {"frame-mlp", "frame-vit"}
        assert rows["frame-vit"]["params"] > rows["frame-mlp"]["params"]



class TestLabelNoiseExperiment:
    def test_series_keys(self):
        series = run_fig5_label_noise(TINY, rates=(0.0, 0.5),
                                      model="frame-mlp")
        assert set(series) == {0.0, 0.5}
        for point in series.values():
            assert "actions_macro_f1" in point


class TestFormatting:
    def test_table_alignment(self):
        text = format_table("Table X", ["model", "acc"],
                            [["vt", 0.93], ["c3d", 0.81]])
        lines = text.splitlines()
        assert lines[0] == "Table X"
        assert "model" in lines[1]
        assert all("|" in line for line in lines[1:2])

    def test_table_empty_rows(self):
        text = format_table("T", ["a"], [])
        assert "T" in text

    def test_figure_series(self):
        text = format_figure_series("Fig", "frames",
                                    {4: {"acc": 0.5}, 8: {"acc": 0.7}})
        assert "frames=4" in text
        assert "acc=0.500" in text

    def test_small_float_formatting(self):
        text = format_table("T", ["v"], [[1.5e-7]])
        assert "1.5e-07" in text
