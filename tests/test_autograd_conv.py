"""Unit tests for N-d convolution and pooling ops."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd.convops import conv_nd, max_pool_nd

RNG = np.random.default_rng(7)


def rand_tensor(*shape, scale=1.0):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=True)


def reference_conv2d(x, w, b, stride, padding):
    """Direct loop conv for cross-checking (float64)."""
    x = np.pad(x.astype(np.float64),
               ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    bsz, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    oh = (h - kh) // stride + 1
    ow = (wdt - kw) // stride + 1
    out = np.zeros((bsz, cout, oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = x[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
            out[:, :, i, j] = np.einsum("bchw,ochw->bo", patch,
                                        w.astype(np.float64))
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_forward_matches_reference(self, stride, padding):
        x = rand_tensor(2, 3, 8, 8)
        w = rand_tensor(4, 3, 3, 3, scale=0.3)
        b = rand_tensor(4)
        out = conv_nd(x, w, b, stride=stride, padding=padding)
        ref = reference_conv2d(x.data, w.data, b.data, stride, padding)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-5)

    def test_grad_all_inputs(self):
        x = rand_tensor(2, 2, 5, 5)
        w = rand_tensor(3, 2, 3, 3, scale=0.3)
        b = rand_tensor(3)
        gradcheck(lambda a, ww, bb: conv_nd(a, ww, bb, 1, 1).tanh(), [x, w, b])

    def test_grad_strided(self):
        x = rand_tensor(1, 2, 6, 6)
        w = rand_tensor(2, 2, 3, 3, scale=0.3)
        gradcheck(lambda a, ww: conv_nd(a, ww, None, 2, 1).tanh(), [x, w])

    def test_no_bias(self):
        x = rand_tensor(1, 1, 4, 4)
        w = rand_tensor(1, 1, 2, 2)
        out = conv_nd(x, w, None, 1, 0)
        assert out.shape == (1, 1, 3, 3)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            conv_nd(rand_tensor(1, 3, 4, 4), rand_tensor(2, 4, 2, 2), None, 1, 0)

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError):
            conv_nd(rand_tensor(1, 3, 4, 4), rand_tensor(2, 3, 2, 2, 2), None, 1, 0)


class TestConv3d:
    def test_shapes(self):
        x = rand_tensor(2, 3, 8, 16, 16)
        w = rand_tensor(5, 3, 3, 3, 3, scale=0.2)
        out = conv_nd(x, w, None, stride=(1, 2, 2), padding=1)
        assert out.shape == (2, 5, 8, 8, 8)

    def test_grad(self):
        x = rand_tensor(1, 2, 4, 4, 4)
        w = rand_tensor(2, 2, 3, 3, 3, scale=0.2)
        b = rand_tensor(2)
        gradcheck(lambda a, ww, bb: conv_nd(a, ww, bb, 1, 1).tanh(), [x, w, b])

    def test_anisotropic_stride_grad(self):
        x = rand_tensor(1, 1, 4, 6, 6)
        w = rand_tensor(2, 1, 1, 3, 3, scale=0.3)
        gradcheck(
            lambda a, ww: conv_nd(a, ww, None, (1, 2, 2), (0, 1, 1)).tanh(),
            [x, w],
        )

    def test_temporal_only_kernel(self):
        x = rand_tensor(1, 2, 6, 3, 3)
        w = rand_tensor(2, 2, 3, 1, 1, scale=0.4)
        out = conv_nd(x, w, None, 1, (1, 0, 0))
        assert out.shape == (1, 2, 6, 3, 3)


class TestPooling:
    def test_maxpool2d_forward(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = max_pool_nd(x, (2, 2))
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])

    def test_maxpool3d_grad(self):
        x = rand_tensor(2, 2, 4, 4, 4)
        gradcheck(lambda a: max_pool_nd(a, (2, 2, 2)).tanh(), [x])

    def test_maxpool_grad_routes_to_max_only(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
        max_pool_nd(x, (2, 2)).sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[0, 0], [0, 1]])

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            max_pool_nd(rand_tensor(1, 1, 5, 4), (2, 2))
