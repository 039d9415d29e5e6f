"""N-dimensional convolution and pooling autodiff ops.

Convolutions use ``numpy.lib.stride_tricks.sliding_window_view`` for the
forward pass and an explicit kernel-offset scatter for the input gradient,
which is simple, exact and fast enough at the clip resolutions used in the
reproduction (≤ 64×64 frames, ≤ 5³ kernels).

Pooling is the non-overlapping (kernel == stride) variant implemented with
a block reshape, which covers the C3D-style baselines.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.tensor import Tensor


def _tuplify(value, n: int) -> Tuple[int, ...]:
    if isinstance(value, int):
        return (value,) * n
    value = tuple(value)
    if len(value) != n:
        raise ValueError(f"expected {n} values, got {value}")
    return value


def conv_nd(x: Tensor, weight: Tensor, bias: Optional[Tensor],
            stride, padding) -> Tensor:
    """Cross-correlation of ``x`` ``(B, Cin, *S)`` with ``weight``
    ``(Cout, Cin, *K)``; returns ``(B, Cout, *Sout)``.

    ``stride`` and ``padding`` are ints or per-spatial-dim tuples.
    """
    spatial = x.data.ndim - 2
    if weight.data.ndim != spatial + 2:
        raise ValueError("weight rank does not match input rank")
    stride = _tuplify(stride, spatial)
    padding = _tuplify(padding, spatial)
    kernel = weight.data.shape[2:]
    batch, cin = x.data.shape[:2]
    cout = weight.data.shape[0]
    if weight.data.shape[1] != cin:
        raise ValueError("weight Cin does not match input channels")

    pad_width = ((0, 0), (0, 0)) + tuple((p, p) for p in padding)
    xp = np.pad(x.data, pad_width)

    # windows: (B, Cin, *Sout, *K) after stride slicing the Sout axes.
    windows = sliding_window_view(xp, kernel, axis=tuple(range(2, 2 + spatial)))
    slicer = (slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride)
    windows = windows[slicer]
    out_spatial = windows.shape[2:2 + spatial]
    n_out = int(np.prod(out_spatial))
    k_flat = int(np.prod(kernel))

    # Flatten spatial positions (p) and kernel taps (k) for clean einsums.
    win2 = np.ascontiguousarray(windows).reshape(batch, cin, n_out, k_flat)
    w2 = weight.data.reshape(cout, cin, k_flat)
    out2 = np.einsum("bcpk,ock->bop", win2, w2, optimize=True)
    out = out2.reshape((batch, cout) + out_spatial)
    if bias is not None:
        out = out + bias.data.reshape((1, -1) + (1,) * spatial)
    out = np.ascontiguousarray(out, dtype=x.data.dtype)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(batch, cout, n_out)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0,) + tuple(range(2, 2 + spatial))),
                             fresh=True)
        if weight.requires_grad:
            gw2 = np.einsum("bop,bcpk->ock", g2, win2, optimize=True)
            weight._accumulate(gw2.reshape(weight.data.shape), fresh=True)
        if x.requires_grad:
            gx_pad = np.zeros_like(xp)
            # Scatter per kernel offset: each tap of the kernel maps the
            # output grad onto a strided slab of the padded input.
            for flat_idx, offset in enumerate(product(*(range(k) for k in kernel))):
                w_off = w2[:, :, flat_idx]  # (Cout, Cin)
                contrib = np.einsum("bop,oc->bcp", g2, w_off, optimize=True)
                contrib = contrib.reshape((batch, cin) + out_spatial)
                index = (slice(None), slice(None)) + tuple(
                    slice(o, o + s * n, s)
                    for o, s, n in zip(offset, stride, out_spatial)
                )
                gx_pad[index] += contrib
            crop = (slice(None), slice(None)) + tuple(
                slice(p, p + n) for p, n in zip(padding, x.data.shape[2:])
            )
            x._accumulate(gx_pad[crop])

    return Tensor._make(out, parents, backward)


def max_pool_nd(x: Tensor, kernel) -> Tensor:
    """Non-overlapping max pooling over all spatial dims of
    ``(B, C, *S)``; each spatial extent must be divisible by the kernel."""
    spatial = x.data.ndim - 2
    kernel = _tuplify(kernel, spatial)
    shape = x.data.shape
    for size, k in zip(shape[2:], kernel):
        if size % k != 0:
            raise ValueError(
                f"spatial size {size} not divisible by pool kernel {k}"
            )
    out_spatial = tuple(s // k for s, k in zip(shape[2:], kernel))

    # Reshape to blocks: (B, C, s1/k1, k1, s2/k2, k2, ...)
    block_shape = shape[:2] + tuple(
        v for pair in zip(out_spatial, kernel) for v in pair
    )
    blocks = x.data.reshape(block_shape)
    # Move all kernel axes to the end.
    kernel_axes = tuple(3 + 2 * i for i in range(spatial))
    keep_axes = (0, 1) + tuple(2 + 2 * i for i in range(spatial))
    blocks_t = blocks.transpose(keep_axes + kernel_axes)
    flat = np.ascontiguousarray(blocks_t).reshape(
        blocks_t.shape[: 2 + spatial] + (-1,)
    )
    out = flat.max(axis=-1)
    argmax = flat.argmax(axis=-1)

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, argmax[..., None], g[..., None], axis=-1)
        gblocks_t = gflat.reshape(blocks_t.shape)
        inverse = np.argsort(keep_axes + kernel_axes)
        gblocks = gblocks_t.transpose(inverse)
        x._accumulate(gblocks.reshape(shape))

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)
