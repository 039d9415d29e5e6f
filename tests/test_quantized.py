"""Tests for the quantized no-grad fast path and sliding-window
temporal-overlap reuse (docs/performance.md)."""

import hashlib

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.core import ScenarioExtractor
from repro.core.pipeline import _frame_digest, _frame_hasher
from repro.core.cache import extractor_version, model_fingerprint
from repro.data import SynthDriveConfig, generate_dataset
from repro.models import ModelConfig, VideoTransformer, build_model
from repro.models.engine import (
    _COLUMN_MAX_LIMIT,
    InferenceEngine,
    _row_max,
)
from repro.nn.quant import (
    QMAX,
    activation_scale,
    dequantize_fp16,
    dequantize_per_channel,
    quantization_error,
    quantize_activations,
    quantize_fp16,
    quantize_per_channel,
)
from repro.train import TrainConfig, Trainer

CFG = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                  num_heads=2, dropout=0.0)


def _model(attention="divided", seed=0, **overrides):
    cfg = ModelConfig(frames=4, height=16, width=16, dim=16, depth=1,
                      num_heads=2, dropout=0.0, seed=seed, **overrides)
    return build_model(f"vt-{attention}", cfg)


def _clips(n=6, seed=0, frames=4):
    rng = np.random.default_rng(seed)
    return rng.random((n, frames, 3, 16, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def trained():
    dataset = generate_dataset(SynthDriveConfig(
        num_clips=24, frames=4, height=16, width=16, seed=3,
        families=("free-drive", "pedestrian-crossing", "turn-left"),
    ))
    model = build_model("vt-divided", CFG)
    Trainer(model, TrainConfig(epochs=4, batch_size=8,
                               lr=3e-3)).fit(dataset)
    return model, dataset


class TestQuantPrimitives:
    def test_round_trip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((48, 32)).astype(np.float32)
        codes, scales = quantize_per_channel(weight)
        assert codes.dtype == np.int8
        assert scales.shape == (32,)
        error = np.abs(dequantize_per_channel(codes, scales) - weight)
        # Symmetric round-to-nearest: at most half a step per channel.
        assert (error <= scales / 2 + 1e-7).all()
        assert quantization_error(weight) <= scales.max() / 2 + 1e-7

    def test_codes_stay_on_symmetric_grid(self):
        rng = np.random.default_rng(1)
        weight = (rng.standard_normal((16, 8)) * 100).astype(np.float32)
        codes, _ = quantize_per_channel(weight)
        assert codes.min() >= -QMAX and codes.max() <= QMAX

    def test_zero_channel_gets_unit_scale(self):
        weight = np.zeros((4, 3), dtype=np.float32)
        weight[:, 0] = 2.0
        codes, scales = quantize_per_channel(weight)
        assert scales[1] == 1.0 and scales[2] == 1.0
        assert (codes[:, 1:] == 0).all()
        np.testing.assert_allclose(
            dequantize_per_channel(codes, scales)[:, 0], 2.0)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            quantize_per_channel(np.zeros(3, dtype=np.float32))

    def test_activation_quantization_saturates(self):
        scale = activation_scale(2.0)
        x = np.array([-5.0, -2.0, 0.0, 1.0, 2.0], dtype=np.float32)
        q = quantize_activations(x.copy(), scale)
        assert q[0] == -QMAX  # saturated, not wrapped
        assert q[2] == 0.0
        assert q[4] == QMAX
        assert float(q[3]) == round(1.0 / scale)

    def test_activation_scale_degenerate_site(self):
        assert activation_scale(0.0) == 1.0

    def test_fp16_round_trip(self):
        rng = np.random.default_rng(2)
        weight = rng.standard_normal((8, 8)).astype(np.float32)
        widened = dequantize_fp16(quantize_fp16(weight))
        assert widened.dtype == np.float32
        # fp16 has 10 mantissa bits: relative error under 2**-10.
        assert np.abs(widened - weight).max() <= np.abs(weight).max() / 1024


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
            engine = InferenceEngine(model, "fp32")
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
        engine = InferenceEngine(model, "fp32")
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

    def test_row_max_matches_reduction(self):
        rng = np.random.default_rng(13)
        for n in (1, 5, 16, _COLUMN_MAX_LIMIT, _COLUMN_MAX_LIMIT + 1, 129):
            x = rng.standard_normal((3, 7, n)).astype(np.float32)
            np.testing.assert_array_equal(_row_max(x),
                                          x.max(axis=-1, keepdims=True))

    def test_quantized_logits_close_to_fp32(self):
        model = _model()
        clips = _clips()
        reference = InferenceEngine(model, "fp32").logits(clips)
        for precision, atol in (("fp16", 0.05), ("int8", 0.6)):
            quantized = InferenceEngine(model, precision).logits(clips)
            for head in reference:
                scale = max(np.abs(reference[head]).max(), 1.0)
                assert (np.abs(quantized[head] - reference[head]).max()
                        <= atol * scale), (precision, head)

    def test_int8_calibration_is_deterministic(self):
        model = _model()
        first = InferenceEngine(model, "int8", calibration_seed=11)
        second = InferenceEngine(model, "int8", calibration_seed=11)
        assert first.activation_scales() == second.activation_scales()
        clips = _clips()
        a, b = first.logits(clips), second.logits(clips)
        for head in a:
            np.testing.assert_array_equal(a[head], b[head])

    def test_int8_weights_shrink(self):
        size = InferenceEngine(_model(), "int8").weight_bytes()
        assert size["stored"] < size["fp32"] / 3

    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError):
            InferenceEngine(_model(), "int4")

    def test_rejects_non_transformer(self):
        mlp = build_model("frame-mlp", CFG)
        with pytest.raises(ValueError):
            InferenceEngine(mlp, "int8")

    def test_quantized_logits_batch_independent(self):
        """Static activation scales make int8 results independent of
        how clips are batched — the property reuse composition needs."""
        model = _model()
        engine = InferenceEngine(model, "int8")
        clips = _clips(5)
        together = engine.logits(clips)
        alone = engine.logits(clips[2:3])
        for head in together:
            np.testing.assert_array_equal(together[head][2:3],
                                          alone[head])


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

    def test_quantized_sliding_matches_quantized_naive(self):
        extractor = ScenarioExtractor(_model("factorized"),
                                      precision="int8")
        rng = np.random.default_rng(9)
        video = rng.random((12, 3, 16, 16)).astype(np.float32)
        naive = extractor.extract_sliding(video, 4, 1, reuse=False)
        memoized = extractor.extract_sliding(video, 4, 1, reuse=True)
        for a, b in zip(naive, memoized):
            assert a.confidences == b.confidences

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
    def test_extractor_rejects_unknown_precision(self):
        with pytest.raises(ValueError):
            ScenarioExtractor(_model(), precision="bf16")

    def test_cache_version_distinguishes_precision(self):
        model = _model()
        fp32 = extractor_version(ScenarioExtractor(model))
        int8 = extractor_version(ScenarioExtractor(model,
                                                   precision="int8"))
        fp16 = extractor_version(ScenarioExtractor(model,
                                                   precision="fp16"))
        assert len({fp32, int8, fp16}) == 3
        assert int8.endswith("-int8")
        assert not fp32.endswith("fp32")  # seed caches stay valid
        # fp32 output is bit-identical whichever forward runs it, so
        # its version stays the bare fingerprint.
        assert fp32 == model_fingerprint(model)

    def test_clone_preserves_precision(self):
        extractor = ScenarioExtractor(_model(), precision="int8",
                                      threshold=0.4)
        clone = extractor.clone_with_model(_model(seed=9))
        assert clone.precision == "int8"
        assert clone.threshold == 0.4

    def test_clone_downgrades_for_unquantizable_model(self):
        extractor = ScenarioExtractor(_model(), precision="int8")
        clone = extractor.clone_with_model(build_model("frame-mlp", CFG))
        assert clone.precision == "fp32"

    def test_api_load_extractor_precision(self):
        from repro import api

        extractor = api.load_extractor(model=_model(), precision="fp16")
        assert extractor.precision == "fp16"
        assert extractor._engine is not None

    def test_service_health_reports_precision_and_reuse(self):
        from repro.serve.service import ExtractionService

        service = ExtractionService(_model("factorized"),
                                    precision="int8")
        health = service.health()
        assert health["precision"] == "int8"
        assert health["reuse"]["supported"]

    def test_cli_precision_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["extract", "--data", "d.npz",
                                  "--checkpoint", "m.npz",
                                  "--precision", "int8"])
        assert args.precision == "int8"
        args = parser.parse_args(["serve", "--data", "d.npz",
                                  "--checkpoint", "m.npz"])
        assert args.precision == "fp32"
        with pytest.raises(SystemExit):
            parser.parse_args(["mine", "--data", "d.npz",
                               "--checkpoint", "m.npz", "--out", "o",
                               "--precision", "int4"])


class TestAccuracyGate:
    def test_quantized_macro_f1_within_one_point(self, trained):
        from repro.eval import quantized_accuracy_delta

        model, dataset = trained
        report = quantized_accuracy_delta(model, dataset)
        assert report["fp16_macro_f1_drop_pts"] <= 1.0
        assert report["int8_macro_f1_drop_pts"] <= 1.0
        assert report["int8_scene_acc_drop_pts"] <= 5.0
