"""Deeper attention / encoder behaviour tests."""

import numpy as np

from repro.autograd import Tensor

RNG = np.random.default_rng(21)


def rand(*shape, scale=1.0, grad=False):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=grad)


class TestDividedBlockInternals:
    def test_temporal_sublayer_isolates_patches(self):
        """After only the temporal sublayer, patch p's tokens depend
        only on patch p across frames (verified through the block by
        zeroing the spatial path)."""
        from repro.models.video_transformer import DividedSTBlock

        block = DividedSTBlock(8, 2, mlp_ratio=1.0, dropout=0.0,
                               rng=np.random.default_rng(4))
        # Disable spatial attention and MLP contributions.
        block.attn_s.proj.weight.data[...] = 0.0
        block.attn_s.proj.bias.data[...] = 0.0
        block.mlp.fc2.weight.data[...] = 0.0
        block.mlp.fc2.bias.data[...] = 0.0
        block.eval()

        x = rand(1, 3, 4, 8)
        base = block(x).data.copy()
        x2 = Tensor(x.data.copy())
        # Perturb one dim of patch 2 in frame 1 (a constant shift across
        # all dims would be removed exactly by the pre-LN).
        x2.data[0, 1, 2, 0] += 5.0
        out2 = block(x2).data
        # Other patches are unchanged in every frame.
        for p in (0, 1, 3):
            np.testing.assert_allclose(out2[0, :, p], base[0, :, p],
                                       atol=1e-4)
        # Patch 2 changes in other frames too (temporal mixing).
        assert not np.allclose(out2[0, 0, 2], base[0, 0, 2], atol=1e-4)

    def test_block_preserves_shape(self):
        from repro.models.video_transformer import DividedSTBlock

        block = DividedSTBlock(8, 2, mlp_ratio=2.0, dropout=0.0,
                               rng=np.random.default_rng(5))
        x = rand(2, 4, 6, 8)
        assert block(x).shape == (2, 4, 6, 8)
