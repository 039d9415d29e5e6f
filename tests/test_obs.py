"""Tests for the repro.obs telemetry subsystem: metrics registry
semantics, span timing into ``span.seconds``, disabled-mode no-op
guarantees, the overhead guard and telemetry-wired logging."""

import io
import json
import time

import numpy as np
import pytest

from repro import obs
from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.data.synthdrive import SynthDriveConfig, generate_dataset
from repro.models import ModelConfig, build_model
from repro.obs.registry import MetricsRegistry
from repro.train import TrainConfig, Trainer


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry off and zeroed."""
    obs.disable()
    obs.metrics.clear()
    yield
    obs.disable()
    obs.metrics.clear()


def span_count(name):
    return obs.metrics.histogram("span.seconds", name=name).count


def tiny_trainer(epochs=1, verbose=False, clips=10, frames=4):
    dataset = generate_dataset(SynthDriveConfig(num_clips=clips,
                                                frames=frames, seed=0))
    model = build_model("frame-mlp", ModelConfig(frames=frames, dim=16,
                                                 depth=1, num_heads=2,
                                                 seed=0))
    trainer = Trainer(model, TrainConfig(epochs=epochs, batch_size=8,
                                         seed=0, verbose=verbose))
    return trainer, dataset


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2.5)
        assert reg.counter("hits").value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("hits").inc(-1)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("ops", op="matmul").inc()
        reg.counter("ops", op="add").inc(5)
        assert reg.counter("ops", op="matmul").value == 1
        assert reg.counter("ops", op="add").value == 5
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("lr")
        g.set(3e-3)
        g.add(-1e-3)
        assert g.value == pytest.approx(2e-3)

    def test_histogram_statistics(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)
        assert h.min == pytest.approx(0.05)
        assert h.max == pytest.approx(50.0)
        assert h.mean == pytest.approx(55.55 / 4)
        # one observation per bucket, including overflow
        assert h.bucket_counts == [1, 1, 1, 1]

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", bounds=(1.0, 0.1))

    def test_snapshot_and_reset_in_place(self):
        reg = MetricsRegistry()
        c = reg.counter("n", stage="a")
        c.inc(7)
        snap = reg.snapshot()
        assert snap == [{"kind": "counter", "name": "n",
                         "labels": {"stage": "a"}, "value": 7.0}]
        reg.reset()
        assert reg.counter("n", stage="a").value == 0.0
        assert reg.counter("n", stage="a") is c  # handle stays valid

    def test_export_jsonl_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("b").observe(0.2)
        buf = io.StringIO()
        assert reg.export_jsonl(buf) == 2
        rows = [json.loads(line) for line in
                buf.getvalue().strip().splitlines()]
        assert {r["name"] for r in rows} == {"a", "b"}
        assert rows[1]["count"] == 1

    def test_format_table_lists_series(self):
        reg = MetricsRegistry()
        reg.counter("my.metric", op="matmul").inc(3)
        table = reg.format_table()
        assert "my.metric" in table
        assert "op=matmul" in table


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_timing_monotonicity(self):
        obs.enable()
        with obs.span("parent"):
            with obs.span("child"):
                time.sleep(0.005)
        parent = obs.metrics.histogram("span.seconds", name="parent")
        child = obs.metrics.histogram("span.seconds", name="child")
        assert parent.count == child.count == 1
        assert child.sum >= 0.005
        assert parent.sum >= child.sum
        assert child.min <= child.max

    def test_span_feeds_registry_histogram(self):
        obs.enable()
        with obs.span("stage"):
            pass
        assert span_count("stage") == 1

    def test_disabled_is_noop_singleton(self):
        assert obs.span("a") is obs.span("b")
        with obs.span("a"):
            pass
        assert len(obs.metrics) == 0

    def test_divided_forward_records_attention_split(self):
        obs.enable()
        model = build_model("vt-divided", ModelConfig(
            frames=4, dim=16, depth=1, num_heads=2, seed=0))
        model.eval()
        with no_grad():
            model(Tensor(np.zeros((2, 4, 3, 32, 32), dtype=np.float32)))
        for stage in ("nn/attention/spatial", "nn/attention/temporal"):
            assert span_count(stage) >= 1, stage

    @pytest.mark.parametrize("variant,stages", [
        ("vt-joint", ("nn/encoder/joint",)),
        ("vt-factorized", ("nn/encoder/spatial", "nn/encoder/temporal")),
    ])
    def test_autograd_forward_records_encoder_stages(self, variant,
                                                     stages):
        obs.enable()
        model = build_model(variant, ModelConfig(
            frames=4, dim=16, depth=1, num_heads=2, seed=0))
        model.eval()
        with no_grad():
            model(Tensor(np.zeros((2, 4, 3, 32, 32), dtype=np.float32)))
        for stage in stages:
            assert span_count(stage) >= 1, stage


# ----------------------------------------------------------------------
# Overhead guard
# ----------------------------------------------------------------------
class TestOverheadGuard:
    def test_disabled_span_cost_is_tiny(self):
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            with obs.span("x"):
                pass
        per_call = (time.perf_counter() - start) / n
        assert per_call < 5e-6  # well under measurement relevance


# ----------------------------------------------------------------------
# Logging + trainer telemetry
# ----------------------------------------------------------------------
class TestLoggingAndTrainer:
    def test_verbose_prints_epoch_lines(self, capsys):
        trainer, dataset = tiny_trainer(verbose=True)
        trainer.fit(dataset)
        out = capsys.readouterr().out
        assert "epoch 0: loss=" in out

    def test_non_verbose_is_silent(self, capsys):
        trainer, dataset = tiny_trainer(verbose=False)
        trainer.fit(dataset)
        assert "epoch" not in capsys.readouterr().out

    def test_log_records_counted_in_registry(self):
        trainer, dataset = tiny_trainer()
        trainer.fit(dataset)
        counter = obs.metrics.counter("log.records", logger="repro.train",
                                      level="INFO")
        assert counter.value >= 1

    def test_epoch_record_carries_lr_grad_norm_and_breakdown(self):
        trainer, dataset = tiny_trainer(epochs=2)
        history = trainer.fit(dataset)
        for record in history:
            assert record.lr > 0.0
            assert record.grad_norm >= 0.0
            assert record.grad_norm <= trainer.config.clip_norm + 1e-9
            stages = (record.forward_seconds + record.backward_seconds
                      + record.optim_seconds)
            assert 0.0 < stages <= record.seconds

    def test_trainer_spans_and_data_metrics_when_enabled(self):
        obs.enable()
        trainer, dataset = tiny_trainer()
        trainer.fit(dataset)
        assert span_count("train/epoch") == 1
        for stage in ("train/forward", "train/backward", "train/optim",
                      "train/evaluate", "data/collate"):
            assert span_count(stage) >= 1, stage
        assert obs.metrics.counter("data.batches_served").value >= 1
