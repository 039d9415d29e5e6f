"""Tests for layers, attention, transformer blocks and patch embeddings."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, gradcheck

RNG = np.random.default_rng(11)


def rand(*shape, scale=1.0, grad=True):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=grad)


class TestLinear:
    def test_forward_2d(self):
        lin = nn.Linear(4, 3, rng=np.random.default_rng(0))
        x = rand(5, 4, grad=False)
        out = lin(x)
        np.testing.assert_allclose(
            out.data, x.data @ lin.weight.data + lin.bias.data, rtol=1e-5
        )

    def test_forward_nd_matches_flattened(self):
        lin = nn.Linear(4, 3, rng=np.random.default_rng(0))
        x = rand(2, 5, 4, grad=False)
        out = lin(x)
        assert out.shape == (2, 5, 3)
        flat = lin(Tensor(x.data.reshape(10, 4)))
        np.testing.assert_allclose(out.data.reshape(10, 3), flat.data,
                                   rtol=1e-6)

    def test_no_bias(self):
        lin = nn.Linear(4, 3, bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_grad_flows_to_input_and_params(self):
        lin = nn.Linear(3, 2, rng=np.random.default_rng(1))
        x = rand(4, 3)
        gradcheck(lambda a: lin(a).tanh().sum(), [x])
        lin(x).sum().backward()
        assert lin.weight.grad is not None
        assert lin.bias.grad is not None


class TestLayerNormModule:
    def test_output_normalised(self):
        ln = nn.LayerNorm(8)
        x = rand(4, 8, scale=7.0, grad=False)
        y = ln(x).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)

    def test_parameters_registered(self):
        assert len(nn.LayerNorm(8).parameters()) == 2


class TestEmbedding:
    def test_lookup_shape(self):
        emb = nn.Embedding(10, 6, rng=np.random.default_rng(0))
        out = emb(np.array([[1, 2, 3], [4, 5, 6]]))
        assert out.shape == (2, 3, 6)

    def test_grad_scattered(self):
        emb = nn.Embedding(5, 2, rng=np.random.default_rng(0))
        emb(np.array([0, 0, 1])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[0], [2.0, 2.0])
        np.testing.assert_allclose(emb.weight.grad[2], [0.0, 0.0])


class TestAttention:
    def test_output_shape(self):
        attn = nn.MultiHeadAttention(16, 4, rng=np.random.default_rng(0))
        out = attn(rand(2, 7, 16, grad=False))
        assert out.shape == (2, 7, 16)

    def test_dim_head_mismatch_raises(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(10, 3)

    def test_grad_flows(self):
        attn = nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        x = rand(1, 4, 8, scale=0.5)
        gradcheck(lambda a: attn(a).sum(), [x], atol=3e-2, rtol=8e-2)

    def test_attention_rows_sum_to_one(self):
        attn = nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(4))
        maps = attn.attention_map(rand(2, 6, 8, grad=False))
        np.testing.assert_allclose(maps.sum(axis=-1), 1.0, rtol=1e-5)


class TestTransformer:
    def test_encoder_shape_preserved(self):
        enc = nn.TransformerEncoder(16, depth=2, num_heads=4,
                                    rng=np.random.default_rng(0))
        out = enc(rand(2, 9, 16, grad=False))
        assert out.shape == (2, 9, 16)

    def test_encoder_grad_flows_to_all_params(self):
        enc = nn.TransformerEncoder(8, depth=2, num_heads=2,
                                    rng=np.random.default_rng(0))
        enc(rand(1, 4, 8)).sum().backward()
        missing = [n for n, p in enc.named_parameters() if p.grad is None]
        assert not missing, f"params without grad: {missing}"

    def test_residual_identity_at_zero_weights(self):
        """Zeroing the output projections makes each block the identity."""
        layer = nn.TransformerEncoderLayer(8, 2, rng=np.random.default_rng(0))
        layer.attn.proj.weight.data[...] = 0.0
        layer.attn.proj.bias.data[...] = 0.0
        layer.mlp.fc2.weight.data[...] = 0.0
        layer.mlp.fc2.bias.data[...] = 0.0
        x = rand(1, 5, 8, grad=False)
        np.testing.assert_allclose(layer(x).data, x.data, atol=1e-6)

    def test_mlp_hidden_dim(self):
        mlp = nn.MLP(8, 32, rng=np.random.default_rng(0))
        assert mlp.fc1.out_features == 32
        assert mlp(rand(2, 3, 8, grad=False)).shape == (2, 3, 8)


class TestPatchEmbeddings:
    def test_patch2d_token_count(self):
        pe = nn.PatchEmbed2D(3, patch_size=8, dim=16,
                             rng=np.random.default_rng(0))
        out = pe(rand(2, 4, 3, 32, 32, grad=False))
        assert out.shape == (2, 4, 16, 16)
        assert pe.num_patches(32, 32) == 16

    def test_patch2d_indivisible_raises(self):
        pe = nn.PatchEmbed2D(3, patch_size=5, dim=16)
        with pytest.raises(ValueError):
            pe(rand(1, 2, 3, 32, 32, grad=False))

    def test_patch2d_patch_content_is_local(self):
        """Each token depends only on its own patch's pixels."""
        pe = nn.PatchEmbed2D(1, patch_size=4, dim=8,
                             rng=np.random.default_rng(1))
        x = np.zeros((1, 1, 1, 8, 8), dtype=np.float32)
        base = pe(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 0, 0, 0, 0] = 5.0  # inside patch 0 only
        out2 = pe(Tensor(x2)).data
        assert not np.allclose(out2[0, 0, 0], base[0, 0, 0])
        np.testing.assert_allclose(out2[0, 0, 1:], base[0, 0, 1:], atol=1e-6)

    def test_tubelet_token_count(self):
        te = nn.TubeletEmbed(3, patch_size=8, tubelet_size=2, dim=16,
                             rng=np.random.default_rng(0))
        out = te(rand(2, 8, 3, 32, 32, grad=False))
        assert out.shape == (2, 4 * 16, 16)
        assert te.grid_shape(8, 32, 32) == (4, 4, 4)

    def test_tubelet_indivisible_frames_raises(self):
        te = nn.TubeletEmbed(3, patch_size=8, tubelet_size=3, dim=16)
        with pytest.raises(ValueError):
            te(rand(1, 8, 3, 32, 32, grad=False))

    def test_patch_grad_flows(self):
        pe = nn.PatchEmbed2D(2, patch_size=2, dim=4,
                             rng=np.random.default_rng(2))
        x = rand(1, 2, 2, 4, 4, scale=0.5)
        gradcheck(lambda a: pe(a).tanh().sum(), [x], atol=3e-2, rtol=8e-2)
