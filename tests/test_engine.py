"""Tests for the fp32 no-grad inference engine — bit-identical to the
autograd forward — and sliding-window temporal-overlap reuse
(docs/performance.md)."""

import hashlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.core import ScenarioExtractor
from repro.core.pipeline import (
    FRAME_MEMO_SIZE,
    _frame_digest,
    _frame_hasher,
)
from repro.core.cache import extractor_version, model_fingerprint
from repro.models import ModelConfig, VideoTransformer, build_model
from repro.models import engine as engine_module
from repro.models.engine import InferenceEngine, _Site

CFG = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                  num_heads=2, dropout=0.0)


def _model(attention="divided", seed=0, **overrides):
    cfg = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                      num_heads=2, dropout=0.0, seed=seed, **overrides)
    return build_model(f"vt-{attention}", cfg)


def _clips(n=6, seed=0, frames=4):
    rng = np.random.default_rng(seed)
    return rng.random((n, frames, 3, 16, 16)).astype(np.float32)


def _autograd_logits(model, clips):
    """The training forward under ``no_grad`` — the parity reference."""
    model.eval()
    with no_grad():
        return {k: v.data for k, v in model(Tensor(clips)).items()}


class TestInferenceEngine:
    @pytest.mark.parametrize("attention",
                             ["joint", "divided", "factorized"])
    def test_fp32_engine_matches_autograd_path(self, attention):
        for pool in ("mean", "attention"):
            model = _model(attention, pool=pool)
            engine = InferenceEngine(model)
            for batch in (1, 3, 16):
                clips = _clips(batch)
                reference = _autograd_logits(model, clips)
                fast = engine.logits(clips)
                assert fast.keys() == reference.keys()
                for head in reference:
                    np.testing.assert_array_equal(
                        fast[head], reference[head],
                        err_msg=f"pool={pool} batch={batch}")

    @pytest.mark.parametrize("pool", ["mean", "attention"])
    @pytest.mark.parametrize("attention", ["divided", "factorized"])
    def test_fp32_engine_frame_hooks_match_model(self, attention, pool):
        model = _model(attention, pool=pool)
        engine = InferenceEngine(model)
        frames = _clips(1, frames=7)[0]
        with no_grad():
            reference = model.frame_features(frames)
        features = engine.frame_features(frames)
        np.testing.assert_array_equal(features, reference)
        windows = np.stack([features[s:s + 4] for s in (0, 2, 3)])
        with no_grad():
            expected = model.head_logits_from_frame_features(windows)
        logits = engine.head_logits_from_frame_features(windows)
        for head in expected:
            np.testing.assert_array_equal(logits[head], expected[head])

    def test_rejects_non_transformer(self):
        mlp = build_model("frame-mlp", CFG)
        with pytest.raises(ValueError):
            InferenceEngine(mlp)


def _deep_model(attention, depth=2):
    # dim 32, not 16: at width 16 a one-row GEMM happens to match row 0
    # of a multi-row one, which would hide the lone-sequence hazard.
    return build_model(f"vt-{attention}", ModelConfig(
        frames=4, height=16, width=16, dim=32, depth=depth, num_heads=2,
        dropout=0.0, seed=0))


class TestCLSReadout:
    """The last encoder layer carries only the CLS row past attention
    (a lone sequence keeps two rows)."""

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("attention", ["joint", "factorized"])
    def test_fp32_matches_autograd_at_batch_edges(self, attention, depth):
        model = _deep_model(attention, depth)
        engine = InferenceEngine(model)
        for batch in (1, 2, 3, 16):
            clips = _clips(batch, seed=batch)
            reference = _autograd_logits(model, clips)
            fast = engine.logits(clips)
            for head in reference:
                np.testing.assert_array_equal(
                    fast[head], reference[head], err_msg=f"batch={batch}")

    @pytest.mark.parametrize("depth", [1, 2])
    def test_frame_hooks_match_model_on_one_frame_and_window(self, depth):
        model = _deep_model("factorized", depth)
        engine = InferenceEngine(model)
        frames = _clips(1, seed=5, frames=7)[0]
        for count in (1, 2, 7):
            with no_grad():
                reference = model.frame_features(frames[:count])
            np.testing.assert_array_equal(
                engine.frame_features(frames[:count]), reference,
                err_msg=f"frames={count}")
        features = engine.frame_features(frames)
        for starts in ((2,), (0, 1, 3)):
            windows = np.stack([features[s:s + 4] for s in starts])
            with no_grad():
                expected = model.head_logits_from_frame_features(windows)
            logits = engine.head_logits_from_frame_features(windows)
            for head in expected:
                np.testing.assert_array_equal(
                    logits[head], expected[head],
                    err_msg=f"windows={len(starts)}")

    @pytest.mark.parametrize("attention", ["joint", "factorized"])
    def test_last_layer_row_counts(self, attention, monkeypatch):
        """Inference feeds the last layer's proj/fc1/fc2 one row per
        sequence (two for a lone one) and earlier layers every row."""
        model = _deep_model(attention)
        cfg = model.config
        engine = InferenceEngine(model)
        rows: Dict[str, int] = {}
        call = _Site.__call__

        def counted(site, x):
            rows[site.name] = rows.get(site.name, 0) \
                + x.size // site.in_features
            return call(site, x)

        monkeypatch.setattr(_Site, "__call__", counted)
        # encoder name -> (sequences per clip, rows per sequence)
        if attention == "joint":
            tubelets = cfg.frames // cfg.tubelet_size * cfg.patches_per_frame
            encoders = {"encoder": (1, 1 + tubelets)}
        else:
            encoders = {"spatial_encoder": (cfg.frames,
                                            1 + cfg.patches_per_frame),
                        "temporal_encoder": (1, 1 + cfg.frames)}

        def expect(clips):
            want = {}
            for name, (per_clip, tokens) in encoders.items():
                sequences = clips * per_clip
                trimmed = 2 if sequences == 1 else sequences
                for layer in (0, 1):
                    count = trimmed if layer == 1 else sequences * tokens
                    for site in ("attn.proj", "mlp.fc1", "mlp.fc2"):
                        want[f"{name}.layers.{layer}.{site}"] = count
            return want

        def observed():
            return {name: count for name, count in rows.items()
                    if ".attn.proj" in name or ".mlp." in name}

        for batch in (1, 2, 3):
            rows.clear()
            engine.logits(_clips(batch))
            assert observed() == expect(batch), batch


def _assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.description.to_json() == b.description.to_json()
        assert a.sentence == b.sentence
        assert a.confidences == b.confidences
        assert a.frame_range == b.frame_range
        assert a.tag_confidences == b.tag_confidences


class TestSlidingReuse:
    @pytest.mark.parametrize("attention", ["divided", "factorized"])
    def test_memoized_bitwise_identical_to_naive(self, attention):
        extractor = ScenarioExtractor(_model(attention))
        rng = np.random.default_rng(4)
        video = rng.random((20, 3, 16, 16)).astype(np.float32)
        naive = extractor.extract_sliding(video, 4, 1, reuse=False)
        memoized = extractor.extract_sliding(video, 4, 1, reuse=True)
        assert len(naive) == len(memoized) == 17
        for a, b in zip(naive, memoized):
            assert a.description.to_json() == b.description.to_json()
            assert a.sentence == b.sentence
            assert a.confidences == b.confidences
            assert a.frame_range == b.frame_range
            assert a.tag_confidences == b.tag_confidences

    def test_auto_mode_memoizes_factorized_only(self):
        rng = np.random.default_rng(5)
        video = rng.random((12, 3, 16, 16)).astype(np.float32)
        factorized = ScenarioExtractor(_model("factorized"))
        factorized.extract_sliding(video, 4, 1)
        assert factorized.reuse_stats()["frame_hits"] > 0
        # divided only has reusable patch embeddings (its blocks run
        # temporal attention first) and measures slower memoized, so
        # the default leaves it on the naive path.
        divided = ScenarioExtractor(_model("divided"))
        divided.extract_sliding(video, 4, 1)
        assert divided.reuse_stats()["frame_hits"] == 0
        assert divided.reuse_stats()["supported"]

    def test_joint_attention_falls_back_to_naive(self):
        extractor = ScenarioExtractor(_model("joint"))
        rng = np.random.default_rng(6)
        video = rng.random((8, 3, 16, 16)).astype(np.float32)
        results = extractor.extract_sliding(video, 4, 1, reuse=True)
        assert len(results) == 5
        stats = extractor.reuse_stats()
        assert not stats["supported"]
        assert stats["frame_hits"] == stats["frame_misses"] == 0

    def test_reuse_accounting(self):
        extractor = ScenarioExtractor(_model("factorized"))
        rng = np.random.default_rng(7)
        video = rng.random((10, 3, 16, 16)).astype(np.float32)
        extractor.extract_sliding(video, 4, 2, reuse=True)
        stats = extractor.reuse_stats()
        # 4 windows x 4 frames = 16 slots, 10 unique frames computed.
        assert stats["frame_misses"] == 10
        assert stats["frame_hits"] == 6
        assert stats["hit_rate"] == pytest.approx(6 / 16)
        assert stats["memo_frames"] == 10

    def test_memo_eviction_respects_capacity(self):
        # Small batches so the video spans several chunks: the memo may
        # temporarily hold a whole chunk's frames but must shrink back
        # to capacity once the chunk is assembled.
        extractor = ScenarioExtractor(_model("factorized"),
                                      batch_size=2, frame_memo_size=8)
        rng = np.random.default_rng(8)
        video = rng.random((24, 3, 16, 16)).astype(np.float32)
        extractor.extract_sliding(video, 4, 2, reuse=True)
        assert len(extractor._frame_memo) <= 8
        assert extractor.reuse_stats()["frame_misses"] > 8  # did evict

    def test_memo_follows_in_place_weight_change(self):
        """``load_state_dict`` writes weights in place: frame features
        memoized under the old weights must not be served after it."""
        extractor = ScenarioExtractor(_model("factorized"))
        rng = np.random.default_rng(11)
        video = rng.random((20, 3, 16, 16)).astype(np.float32)
        extractor.extract_sliding(video, 4, 1)
        extractor.model.load_state_dict(
            _model("factorized", seed=1).state_dict())
        memoized = extractor.extract_sliding(video, 4, 1)
        naive = extractor.extract_sliding(video, 4, 1, reuse=False)
        _assert_identical(memoized, naive)

    @pytest.mark.parametrize("memo", ["window", "3x", "default"])
    @pytest.mark.parametrize("batch_size", [1, 5, 16])
    def test_block_geometry_keeps_results_and_call_bounds(
            self, memo, batch_size, monkeypatch):
        """Static stretches and non-consecutive repeats, with a stride
        that does not divide ``T - window``: however blocks and engine
        calls are cut, the memo path equals the naive one, and no
        engine call takes more than ``2 × batch_size`` rows or more
        input than one naive forward of ``batch_size`` clips."""
        window, stride = 4, 3
        rng = np.random.default_rng(12)
        frames = rng.random((9, 3, 16, 16)).astype(np.float32)
        order = [0, 0, 0, 0, 1, 2, 3, 3, 3, 4, 5, 0, 6, 1, 7, 7, 7, 7,
                 2, 8, 3, 5, 5, 6, 0, 4, 8, 8, 1]
        video = frames[order]
        assert (len(video) - window) % stride != 0
        size = {"window": window, "3x": 3 * window,
                "default": FRAME_MEMO_SIZE}[memo]
        extractor = ScenarioExtractor(_model("factorized"),
                                      batch_size=batch_size,
                                      frame_memo_size=size)
        engine = extractor._engine
        budget = batch_size * window * video[0].size
        calls = {"frames": [], "windows": []}
        frame_features = engine.frame_features
        head = engine.head_logits_from_frame_features

        def counted_frames(batch):
            calls["frames"].append(len(batch))
            assert len(batch) <= 2 * batch_size
            assert batch.size <= budget
            return frame_features(batch)

        def counted_head(feats):
            calls["windows"].append(len(feats))
            assert len(feats) <= 2 * batch_size
            assert feats.size <= budget
            return head(feats)

        monkeypatch.setattr(engine, "frame_features", counted_frames)
        monkeypatch.setattr(engine, "head_logits_from_frame_features",
                            counted_head)
        naive = extractor.extract_sliding(video, window, stride,
                                          reuse=False)
        memoized = extractor.extract_sliding(video, window, stride,
                                             reuse=True)
        _assert_identical(memoized, naive)
        assert sum(calls["windows"]) == len(naive) == 9
        stats = extractor.reuse_stats()
        assert stats["frame_hits"] + stats["frame_misses"] \
            == len(naive) * window
        assert stats["frame_misses"] == sum(calls["frames"])
        assert len(extractor._frame_memo) <= max(size, window)

    def test_iter_window_clips_matches_window_clips(self):
        rng = np.random.default_rng(10)
        video = rng.random((11, 3, 16, 16)).astype(np.float32)
        whole_starts, whole_clips = ScenarioExtractor.window_clips(
            video, 4, 3)
        chunks = list(ScenarioExtractor.iter_window_clips(
            video, 4, 3, chunk_windows=2))
        assert [len(starts) for starts, _ in chunks] == [2, 1]
        np.testing.assert_array_equal(
            np.concatenate([clips for _, clips in chunks]), whole_clips)
        assert [s for starts, _ in chunks
                for s in starts] == whole_starts


class TestChunkFanOut:
    """``InferenceEngine.logits`` runs its ``batch_size`` chunks on up to
    one thread per usable CPU that BLAS's own threads leave free; the
    threads live only for the call."""

    BATCH = 4
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "OMP_NUM_THREADS")

    @pytest.fixture(autouse=True)
    def _one_blas_thread(self, monkeypatch):
        """BLAS pinned to one thread, so every usable CPU is free."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    @pytest.mark.parametrize("env, workers", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
        ({"MKL_NUM_THREADS": "3"}, 1),
        ({"OMP_NUM_THREADS": "0"}, 1),
        ({"OMP_NUM_THREADS": "two"}, 1),
    ])
    def test_threads_leave_blas_its_cpus(self, monkeypatch, env, workers):
        for var in self.BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(engine_module, "_usable_cpus", lambda: 4)
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(engine_module, "ThreadPoolExecutor", Recording)
        chunks = [np.full((1, 1), i, dtype=np.float32) for i in range(8)]
        out = engine_module._map_chunks(lambda c: {"scene": c}, chunks)
        assert [o["scene"][0, 0] for o in out] == list(range(8))
        assert sizes == ([workers] if workers > 1 else [])

    @pytest.mark.parametrize("attention",
                             ["divided", "factorized", "joint"])
    @pytest.mark.parametrize("precision", ["fp32"])
    @pytest.mark.parametrize("clips", [1, 4, 5, 17])
    def test_byte_equal_to_one_forward_per_chunk(self, attention,
                                                 precision, clips):
        # ``precision`` names the engine's one weight format in the ids.
        engine = InferenceEngine(_model(attention))
        batch = _clips(clips, seed=clips)
        got = engine.logits(batch, batch_size=self.BATCH)
        chunks = [engine._forward(batch[i:i + self.BATCH])
                  for i in range(0, clips, self.BATCH)]
        assert set(got) == set(chunks[0])
        for head, value in got.items():
            want = np.concatenate([chunk[head] for chunk in chunks])
            assert value.dtype == want.dtype and value.shape == want.shape
            assert value.tobytes() == want.tobytes(), head

    @staticmethod
    def _tagging_forward(fail_on=None):
        """A stand-in ``_forward`` returning each clip's tag (its first
        pixel) after a random pause, so chunks finish out of order;
        raises ``KeyError`` on the chunk starting with tag ``fail_on``."""
        rng = np.random.default_rng(0)
        pauses = iter(rng.uniform(0.0, 0.01, size=64))

        def forward(chunk):
            time.sleep(next(pauses))
            tags = chunk[:, 0, 0, 0, :1].copy()
            if fail_on is not None and tags[0, 0] == fail_on:
                raise KeyError(fail_on)
            return {"scene": tags, "actors": -tags}

        return forward

    @staticmethod
    def _tagged(n):
        clips = np.zeros((n, 1, 1, 1, 1), dtype=np.float32)
        clips[:, 0, 0, 0, 0] = np.arange(n)
        return clips

    def test_row_order_preserved(self, monkeypatch):
        engine = InferenceEngine(_model())
        monkeypatch.setattr(engine_module, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(engine, "_forward", self._tagging_forward())
        out = engine.logits(self._tagged(3 * self.BATCH + 5),
                            batch_size=self.BATCH)
        order = np.arange(3 * self.BATCH + 5, dtype=np.float32)
        np.testing.assert_array_equal(out["scene"][:, 0], order)
        np.testing.assert_array_equal(out["actors"][:, 0], -order)

    def test_every_chunk_claimed_once_under_contention(self, monkeypatch):
        """More threads than cores and a tiny switch interval: a lost or
        doubled chunk would show as a wrong count or a wrong row."""
        monkeypatch.setattr(engine_module, "_usable_cpus", lambda: 8)
        calls = []

        def forward(chunk):
            calls.append(int(chunk[0, 0]))
            return {"scene": chunk * 2}

        chunks = [np.full((1, 1), i, dtype=np.float32) for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = engine_module._map_chunks(forward, chunks)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(400))
        assert [int(o["scene"][0, 0]) for o in out] \
            == [2 * i for i in range(400)]

    def test_chunk_error_propagates_and_joins(self, monkeypatch):
        engine = InferenceEngine(_model())
        monkeypatch.setattr(engine_module, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(engine, "_forward",
                            self._tagging_forward(fail_on=2 * self.BATCH))
        before = threading.active_count()
        with pytest.raises(KeyError):
            engine.logits(self._tagged(3 * self.BATCH + 5),
                          batch_size=self.BATCH)
        assert threading.active_count() == before

    @staticmethod
    def _spy_threads(monkeypatch):
        started = []

        class Spy(threading.Thread):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", Spy)
        return started

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        engine = InferenceEngine(_model())
        monkeypatch.setattr(engine_module, "_usable_cpus", lambda: 4)
        started = self._spy_threads(monkeypatch)
        for clips in (1, self.BATCH):
            engine.logits(_clips(clips), batch_size=self.BATCH)
        assert started == []
        engine.logits(_clips(self.BATCH + 1), batch_size=self.BATCH)
        assert 1 <= len(started) <= 2

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        engine = InferenceEngine(_model())
        batch = _clips(3 * self.BATCH + 5)
        monkeypatch.setattr(engine_module, "_usable_cpus", lambda: 1)
        started = self._spy_threads(monkeypatch)
        got = engine.logits(batch, batch_size=self.BATCH)
        assert started == []
        for head, value in got.items():
            want = np.concatenate([
                engine._forward(batch[i:i + self.BATCH])[head]
                for i in range(0, len(batch), self.BATCH)])
            assert value.tobytes() == want.tobytes(), head

    @pytest.mark.skipif(engine_module._usable_cpus() < 2,
                        reason="needs two usable CPUs")
    def test_chunks_run_on_several_threads(self, monkeypatch):
        engine = InferenceEngine(_model())
        idents = set()
        forward = engine._forward

        def recorded(chunk):
            idents.add(threading.get_ident())
            time.sleep(0.02)  # every thread claims a chunk meanwhile
            return forward(chunk)

        monkeypatch.setattr(engine, "_forward", recorded)
        engine.logits(_clips(3 * self.BATCH + 5), batch_size=self.BATCH)
        assert len(idents) >= 2

    def test_pool_forks_cleanly_after_fan_out(self):
        from repro.serve import ServiceConfig, ServicePool

        model = build_model("vt-divided", ModelConfig(
            frames=4, dim=16, depth=1, num_heads=2))
        extractor = ScenarioExtractor(model, batch_size=self.BATCH)
        rng = np.random.default_rng(0)
        clips = rng.random((3 * self.BATCH + 5, 4, 3, 32, 32)
                           ).astype(np.float32)
        before = threading.active_count()
        direct = extractor.extract_batch(clips)
        assert threading.active_count() == before
        config = ServiceConfig(max_batch=1)
        with ServicePool(extractor, config, workers=2) as pool:
            futures = [pool.submit(clip, timeout=30.0) for clip in clips[:4]]
            results = [future.result(timeout=60.0) for future in futures]
        assert [r.status for r in results] == ["ok"] * 4
        assert [r.result.sentence for r in results] \
            == [d.sentence for d in direct[:4]]


class TestEngineInputEdges:
    def test_zero_clips_give_zero_row_heads(self):
        model = _model()
        engine = InferenceEngine(model)
        got = engine.logits(_clips(0))
        want = ScenarioExtractor(model).logits(_clips(0))
        assert set(got) == set(want)
        for head, value in want.items():
            assert got[head].shape == value.shape == (0, value.shape[1])
            assert got[head].dtype == np.float32

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_engine_rejects_non_positive_batch_size(self, batch_size):
        engine = InferenceEngine(_model())
        with pytest.raises(ValueError, match="batch_size must be positive"):
            engine.logits(_clips(2), batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_extractor_rejects_non_positive_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be positive"):
            ScenarioExtractor(_model(), batch_size=batch_size)


class TestExtractorBackend:
    @pytest.mark.parametrize("attention",
                             ["joint", "divided", "factorized"])
    def test_fp32_transformer_runs_the_engine(self, attention,
                                              monkeypatch):
        model = _model(attention)
        clips = _clips(3)
        reference = _autograd_logits(model, clips)
        extractor = ScenarioExtractor(model)
        assert isinstance(extractor._engine, InferenceEngine)

        def autograd_forward(self, video):
            raise AssertionError("fp32 inference ran the autograd path")

        monkeypatch.setattr(VideoTransformer, "forward", autograd_forward)
        logits = extractor.logits(clips)
        for head in reference:
            np.testing.assert_array_equal(logits[head], reference[head])

    @pytest.mark.parametrize("name", ["c3d", "frame-mlp"])
    def test_baseline_runs_autograd(self, name):
        model = build_model(name, CFG)
        clips = _clips(3)
        extractor = ScenarioExtractor(model)
        assert extractor._engine is None
        assert not extractor.reuse_stats()["supported"]
        reference = _autograd_logits(model, clips)
        logits = extractor.logits(clips)
        for head in reference:
            np.testing.assert_array_equal(logits[head], reference[head])

    def test_loaded_weights_reach_the_engine(self):
        """The fp32 engine reads the model's parameter arrays, not
        copies: weights loaded after the extractor was built are the
        ones the next forward uses."""
        model = _model("divided")
        extractor = ScenarioExtractor(model)
        clips = _clips(3)
        before = extractor.logits(clips)
        other = _model("divided", seed=9)
        model.load_state_dict(other.state_dict())
        after = extractor.logits(clips)
        expected = _autograd_logits(other, clips)
        assert not np.array_equal(after["scene"], before["scene"])
        for head in expected:
            np.testing.assert_array_equal(after[head], expected[head])

    def test_frame_digest_unchanged(self):
        """The per-video header keeps digests byte-identical to hashing
        each frame's own dtype, shape and bytes."""
        rng = np.random.default_rng(12)
        video = (rng.random((5, 3, 16, 16)) * 255).astype(np.uint8)
        hasher = _frame_hasher(video)
        for frame in video:
            expected = hashlib.sha256()
            expected.update(str(frame.dtype).encode())
            expected.update(str(frame.shape).encode())
            expected.update(frame.tobytes())
            assert _frame_digest(hasher, frame) == expected.digest()


class TestPrecisionPlumbing:
    def test_cache_version_distinguishes_precision(self):
        model = _model()
        fp32 = extractor_version(ScenarioExtractor(model))
        # fp32 output is bit-identical whichever forward runs it, so
        # its version stays the bare fingerprint.
        assert fp32 == model_fingerprint(model)

    def test_service_health_reports_precision_and_reuse(self):
        from repro.serve.service import ExtractionService

        service = ExtractionService(
            ScenarioExtractor(_model("factorized")))
        health = service.health()
        assert health["precision"] == "fp32"
        assert health["reuse"]["supported"]
