"""Tests for the repro.obs telemetry subsystem: metrics registry
semantics, span nesting/timing, disabled-mode no-op guarantees, the
overhead guard and telemetry-wired logging."""

import io
import json
import time

import numpy as np
import pytest

from repro import obs
from repro.autograd import no_grad
from repro.autograd.tensor import PROFILED_OPS, Tensor
from repro.data.synthdrive import SynthDriveConfig, generate_dataset
from repro.models import ModelConfig, build_model
from repro.obs.registry import MetricsRegistry
from repro.train import TrainConfig, Trainer


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry off and zeroed."""
    obs.disable()
    obs.metrics.clear()
    obs.reset_trace()
    yield
    obs.disable()
    obs.metrics.clear()
    obs.reset_trace()


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
    def test_nesting_builds_tree(self):
        obs.enable(autograd=False)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        tree = obs.trace_dict()
        assert len(tree) == 1
        outer = tree[0]
        assert outer["name"] == "outer" and outer["count"] == 1
        (inner,) = outer["children"]
        assert inner["name"] == "inner" and inner["count"] == 2

    def test_timing_monotonicity(self):
        obs.enable(autograd=False)
        with obs.span("parent"):
            with obs.span("child"):
                time.sleep(0.005)
        parent = obs.trace_dict()[0]
        child = parent["children"][0]
        assert child["total_seconds"] >= 0.005
        assert parent["total_seconds"] >= child["total_seconds"]
        assert child["min_seconds"] <= child["max_seconds"]

    def test_span_feeds_registry_histogram(self):
        obs.enable(autograd=False)
        with obs.span("stage"):
            pass
        hist = obs.metrics.histogram("span.seconds", name="stage")
        assert hist.count == 1

    def test_disabled_is_noop_singleton(self):
        assert obs.span("a") is obs.span("b")
        with obs.span("a"):
            pass
        assert obs.trace_dict() == []
        assert len(obs.metrics) == 0

    def test_traced_decorator(self):
        calls = []

        @obs.traced("deco/fn")
        def work():
            calls.append(1)
            return 42

        assert work() == 42  # disabled: passthrough
        obs.enable(autograd=False)
        assert work() == 42
        flat = obs.flatten_trace()
        assert flat["deco/fn"]["count"] == 1
        assert len(calls) == 2

    def test_flatten_merges_by_name(self):
        obs.enable(autograd=False)
        with obs.span("a"):
            with obs.span("x"):
                pass
        with obs.span("b"):
            with obs.span("x"):
                pass
        assert obs.flatten_trace()["x"]["count"] == 2

    def test_divided_forward_records_attention_split(self):
        obs.enable(autograd=False)
        model = build_model("vt-divided", ModelConfig(
            frames=4, dim=16, depth=1, num_heads=2, seed=0))
        model.eval()
        with no_grad():
            model(Tensor(np.zeros((2, 4, 3, 32, 32), dtype=np.float32)))
        flat = obs.flatten_trace()
        for stage in ("nn/attention/spatial", "nn/attention/temporal"):
            assert flat[stage]["count"] >= 1, stage

    def test_format_trace_renders(self):
        obs.enable(autograd=False)
        with obs.span("alpha"):
            pass
        text = obs.format_trace()
        assert "alpha" in text and "calls" in text


# ----------------------------------------------------------------------
# Autograd instrumentation
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_enable_records_op_counts_and_time(self):
        obs.enable()
        a = Tensor(np.ones((8, 8)), requires_grad=True)
        ((a @ Tensor(np.ones((8, 8)))).sum()).backward()
        totals = obs.instrument.op_totals()
        assert totals["matmul"]["calls"] == 1
        assert totals["sum"]["calls"] == 1
        assert totals["backward"]["calls"] == 1
        assert totals["matmul"]["seconds"] >= 0.0

    def test_disable_restores_pristine_ops(self):
        originals = {op: getattr(Tensor, op) for op in PROFILED_OPS}
        obs.enable()
        assert getattr(Tensor, "__matmul__") is not originals["__matmul__"]
        obs.disable()
        for op, original in originals.items():
            assert getattr(Tensor, op) is original, op

    def test_disabled_records_nothing(self):
        a = Tensor(np.ones((4, 4)))
        _ = a @ a
        assert obs.instrument.op_totals() == {}

    def test_enable_is_idempotent(self):
        obs.enable()
        wrapped = Tensor.__matmul__
        obs.enable()
        assert Tensor.__matmul__ is wrapped  # not double-wrapped
        obs.disable()

    def test_fused_kernels_counted(self):
        from repro.autograd import fused, tensor

        obs.enable()
        rng = np.random.default_rng(0)
        q, k, v = (tensor(rng.standard_normal((1, 2, 4, 3),
                                              ).astype(np.float32))
                   for _ in range(3))
        w = tensor(rng.standard_normal((3, 5)).astype(np.float32))
        fused.scaled_dot_product_attention(q, k, v)
        fused.linear_gelu(q.reshape(8, 3), w)
        totals = obs.instrument.op_totals()
        assert totals["sdpa"]["calls"] == 1
        assert totals["linear_gelu"]["calls"] == 1

    def test_disable_restores_pristine_fused_kernels(self):
        from repro.autograd import fused

        originals = {attr: getattr(fused, attr)
                     for attr in fused.PROFILED_KERNELS}
        obs.enable()
        assert fused.scaled_dot_product_attention is not \
            originals["scaled_dot_product_attention"]
        obs.disable()
        for attr, original in originals.items():
            assert getattr(fused, attr) is original, attr


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

    def test_training_smoke_no_regression_when_disabled(self):
        """Enable/disable must restore the exact unpatched hot path:
        the instrumented-then-disabled training run stays within 5% of
        the never-enabled baseline.  Runs are interleaved and min-of-N
        per arm to damp scheduler/thermal noise."""
        dataset = generate_dataset(SynthDriveConfig(num_clips=24,
                                                    frames=4, seed=0))

        def run_once():
            # The divided video transformer keeps one run long enough
            # (~150ms) that min-of-5 timing is stable to well under 5%.
            model = build_model("vt-divided", ModelConfig(
                frames=4, dim=16, depth=1, num_heads=2, seed=0))
            trainer = Trainer(model, TrainConfig(epochs=1, batch_size=8,
                                                 seed=0))
            start = time.perf_counter()
            trainer.fit(dataset)
            return time.perf_counter() - start

        run_once()  # warm caches
        # A real regression is systematic, so it fails every attempt;
        # a scheduler hiccup won't survive three.
        ratios = []
        for _ in range(3):
            baseline_runs, disabled_runs = [], []
            for _ in range(5):
                baseline_runs.append(run_once())
                obs.enable()
                obs.disable()
                # Structural guarantee: the dispatch path is the
                # original code object again, so any timing delta is
                # pure noise.
                assert not hasattr(Tensor.__matmul__, "__wrapped__")
                disabled_runs.append(run_once())
            ratios.append(min(disabled_runs) / min(baseline_runs))
            if ratios[-1] <= 1.05:
                break
        assert min(ratios) <= 1.05, ratios


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
        flat = obs.flatten_trace()
        assert flat["train/epoch"]["count"] == 1
        for stage in ("train/forward", "train/backward", "train/optim",
                      "data/collate"):
            assert flat[stage]["count"] >= 1, stage
        assert obs.metrics.counter("data.batches_served").value >= 1
