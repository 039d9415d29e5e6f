"""Fused kernels, the inference fast path and the parallel data path.

Covers the perf layer end to end: parity of the fused
scaled-dot-product-attention / linear+GELU kernels against the composed
reference ops (forward bit-exact, backward by gradcheck and against the
composed graph), the grad-disabled dispatch that skips graph
bookkeeping, batched extraction, parallel dataset generation
determinism.
"""

import numpy as np
import pytest

from repro.autograd import fused, functional as F, gradcheck, no_grad, tensor


def _qkv(seed: int, shape=(2, 3, 5, 4), requires_grad=True):
    rng = np.random.default_rng(seed)
    return tuple(
        tensor(rng.standard_normal(shape).astype(np.float32),
               requires_grad=requires_grad)
        for _ in range(3)
    )


def _composed_sdpa(q, k, v, scale=1.0, merge_heads=False):
    """The pre-fusion reference: one graph node per primitive."""
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    attn = F.softmax(scores, axis=-1)
    out = attn @ v
    if merge_heads:
        b, h, n, hd = out.shape
        out = out.transpose(0, 2, 1, 3).reshape(b, n, h * hd)
    return out


class TestSDPAParity:
    def test_forward_matches_composed_bitwise(self):
        q, k, v = _qkv(0)
        fused_out = fused.scaled_dot_product_attention(q, k, v, scale=0.5)
        ref_out = _composed_sdpa(q, k, v, scale=0.5)
        np.testing.assert_array_equal(fused_out.data, ref_out.data)

    def test_merge_heads_matches_composed_bitwise(self):
        q, k, v = _qkv(2)
        fused_out = fused.scaled_dot_product_attention(
            q, k, v, scale=0.5, merge_heads=True)
        ref_out = _composed_sdpa(q, k, v, scale=0.5, merge_heads=True)
        assert fused_out.shape == (2, 5, 12)
        np.testing.assert_array_equal(fused_out.data, ref_out.data)

    def test_backward_matches_composed(self):
        q1, k1, v1 = _qkv(3)
        q2, k2, v2 = _qkv(3)
        fused_out = fused.scaled_dot_product_attention(
            q1, k1, v1, scale=0.5, merge_heads=True)
        ref_out = _composed_sdpa(q2, k2, v2, scale=0.5, merge_heads=True)
        g = np.random.default_rng(9).standard_normal(
            fused_out.shape).astype(np.float32)
        fused_out.backward(g)
        ref_out.backward(g)
        for fused_t, ref_t in ((q1, q2), (k1, k2), (v1, v2)):
            np.testing.assert_allclose(fused_t.grad, ref_t.grad,
                                       rtol=1e-5, atol=1e-6)

    def test_gradcheck_no_mask(self):
        q, k, v = _qkv(4, shape=(1, 2, 3, 2))
        assert gradcheck(
            lambda a, b, c: fused.scaled_dot_product_attention(
                a, b, c, scale=0.7),
            (q, k, v),
        )

    def test_gradcheck_with_mask_and_merge(self):
        q, k, v = _qkv(5, shape=(1, 2, 3, 2))
        assert gradcheck(
            lambda a, b, c: fused.scaled_dot_product_attention(
                a, b, c, scale=0.7, merge_heads=True),
            (q, k, v),
        )

    def test_dropout_consumes_rng_like_composed(self):
        # Fused attention dropout must draw the mask exactly like
        # F.dropout so fused/composed training runs stay bit-identical.
        q, k, v = _qkv(6)
        out = fused.scaled_dot_product_attention(
            q, k, v, scale=0.5, dropout_p=0.5,
            rng=np.random.default_rng(7), training=True)
        scores = (q @ k.transpose(0, 1, 3, 2)) * 0.5
        attn = F.softmax(scores, axis=-1)
        dropped = F.dropout(attn, 0.5, np.random.default_rng(7),
                            training=True)
        np.testing.assert_array_equal(out.data, (dropped @ v).data)

    def test_dropout_requires_rng(self):
        q, k, v = _qkv(7)
        with pytest.raises(ValueError, match="rng"):
            fused.scaled_dot_product_attention(
                q, k, v, dropout_p=0.5, training=True)


class TestLinearGelu:
    def test_forward_matches_composed_bitwise(self):
        rng = np.random.default_rng(10)
        x = tensor(rng.standard_normal((2, 5, 8)).astype(np.float32),
                   requires_grad=True)
        w = tensor(rng.standard_normal((8, 6)).astype(np.float32),
                   requires_grad=True)
        b = tensor(rng.standard_normal(6).astype(np.float32),
                   requires_grad=True)
        out = fused.linear_gelu(x, w, b)
        ref = F.gelu(x @ w + b)
        np.testing.assert_array_equal(out.data, ref.data)

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        x = tensor(rng.standard_normal((3, 4)).astype(np.float32),
                   requires_grad=True)
        w = tensor(rng.standard_normal((4, 2)).astype(np.float32),
                   requires_grad=True)
        b = tensor(rng.standard_normal(2).astype(np.float32),
                   requires_grad=True)
        assert gradcheck(fused.linear_gelu, (x, w, b))

    def test_gradcheck_no_bias(self):
        rng = np.random.default_rng(12)
        x = tensor(rng.standard_normal((3, 4)).astype(np.float32),
                   requires_grad=True)
        w = tensor(rng.standard_normal((4, 2)).astype(np.float32),
                   requires_grad=True)
        assert gradcheck(fused.linear_gelu, (x, w))

    def test_backward_matches_composed(self):
        rng = np.random.default_rng(13)
        data = [rng.standard_normal(s).astype(np.float32)
                for s in ((2, 5, 8), (8, 6), (6,))]
        x1, w1, b1 = (tensor(d.copy(), requires_grad=True) for d in data)
        x2, w2, b2 = (tensor(d.copy(), requires_grad=True) for d in data)
        g = rng.standard_normal((2, 5, 6)).astype(np.float32)
        fused.linear_gelu(x1, w1, b1).backward(g)
        F.gelu(x2 @ w2 + b2).backward(g)
        for a, b in ((x1, x2), (w1, w2), (b1, b2)):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=1e-6)


class TestInferenceFastPath:
    def test_no_grad_ops_record_nothing(self):
        a = tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        with no_grad():
            results = [a + b, a * b, a @ b.transpose(1, 0), a.sum(),
                       a.exp(), a.reshape(3, 2), F.softmax(a),
                       F.relu(a), F.gelu(a),
                       fused.linear_gelu(a, b.transpose(1, 0))]
        for out in results:
            assert out._backward is None
            assert out._parents == ()
            assert not out.requires_grad

    def test_constant_inputs_record_nothing(self):
        # Even with grad enabled, ops over requires_grad=False tensors
        # must skip graph bookkeeping.
        a = tensor(np.ones((2, 3), dtype=np.float32))
        b = tensor(np.ones((2, 3), dtype=np.float32))
        out = F.gelu(a + b)
        assert out._backward is None and out._parents == ()
        out = fused.scaled_dot_product_attention(
            *_qkv(14, shape=(1, 1, 3, 2), requires_grad=False))
        assert out._backward is None and out._parents == ()

    def test_values_identical_with_and_without_grad(self):
        a = tensor(np.random.default_rng(15).standard_normal(
            (3, 3)).astype(np.float32), requires_grad=True)
        live = F.softmax(a @ a)
        with no_grad():
            frozen = F.softmax(a @ a)
        np.testing.assert_array_equal(live.data, frozen.data)
        assert live._backward is not None


class TestModuleIntegration:
    def test_attention_map_matches_forward_softmax(self):
        from repro.nn.attention import MultiHeadAttention

        attn = MultiHeadAttention(8, 2, rng=np.random.default_rng(16))
        attn.eval()
        x = tensor(np.random.default_rng(17).standard_normal(
            (2, 4, 8)).astype(np.float32))
        weights = attn.attention_map(x)
        assert weights.shape == (2, 2, 4, 4)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-5)

    def test_transformer_layer_trains_through_fused_kernels(self):
        from repro.nn.transformer import TransformerEncoderLayer

        layer = TransformerEncoderLayer(8, 2, rng=np.random.default_rng(18))
        layer.train()
        x = tensor(np.random.default_rng(19).standard_normal(
            (2, 4, 8)).astype(np.float32), requires_grad=True)
        (layer(x) ** 2).sum().backward()
        grads = [p.grad for p in layer.parameters() if p.requires_grad]
        assert all(g is not None for g in grads)
        assert any(float(np.abs(g).sum()) > 0 for g in grads)


class TestBatchedExtraction:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.core import ScenarioExtractor
        from repro.models import ModelConfig, build_model

        model = build_model("vt-divided", ModelConfig(
            frames=4, height=16, width=16, dim=8, depth=1, num_heads=2,
            seed=0))
        extractor = ScenarioExtractor(model, batch_size=4)
        clips = np.random.default_rng(20).random(
            (6, 4, 3, 16, 16)).astype(np.float32)
        return extractor, clips

    def test_batch_size_override_matches_default(self, setup):
        extractor, clips = setup
        by_default = extractor.extract_batch(clips)
        by_two = extractor.extract_batch(clips, batch_size=2)
        assert [r.sentence for r in by_default] == \
            [r.sentence for r in by_two]

    def test_batch_matches_per_clip_extract(self, setup):
        extractor, clips = setup
        batched = extractor.extract_batch(clips)
        for i, result in enumerate(batched):
            single = extractor.extract(clips[i])
            assert single.sentence == result.sentence
            assert single.confidences == pytest.approx(result.confidences)

    def test_rejects_bad_batch_size(self, setup):
        extractor, clips = setup
        with pytest.raises(ValueError, match="batch_size"):
            extractor.logits(clips, batch_size=0)


class TestParallelGeneration:
    def test_workers_bit_identical_to_serial(self):
        from repro.data import SynthDriveConfig, generate_dataset

        config = SynthDriveConfig(num_clips=8, frames=4, height=16,
                                  width=16, seed=3)
        serial = generate_dataset(config, workers=0)
        parallel = generate_dataset(config, workers=4)
        np.testing.assert_array_equal(serial.videos, parallel.videos)
        assert serial.families == parallel.families
        assert [d.to_json() for d in serial.descriptions] == \
            [d.to_json() for d in parallel.descriptions]
        np.testing.assert_array_equal(serial.targets["scene"],
                                      parallel.targets["scene"])

    def test_unbalanced_plan_unchanged_by_workers(self):
        from repro.data import SynthDriveConfig, generate_dataset

        config = SynthDriveConfig(num_clips=6, frames=4, height=16,
                                  width=16, seed=5, balanced=False)
        serial = generate_dataset(config, workers=0)
        parallel = generate_dataset(config, workers=2)
        assert serial.families == parallel.families
        np.testing.assert_array_equal(serial.videos, parallel.videos)
