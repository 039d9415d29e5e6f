"""Raw-numpy forward kernels shared by training and inference.

Every function here takes and returns plain ndarrays and knows nothing
of :class:`~repro.autograd.tensor.Tensor`.  The autograd ops
(``functional.softmax``/``layer_norm``/``gelu`` and
``fused.scaled_dot_product_attention``/``linear_gelu``) build their
graph nodes around these kernels, and the no-grad
:class:`~repro.models.engine.InferenceEngine` calls the same functions,
so the fp32 training and inference forwards are bit-identical by
construction and a kernel speedup reaches both.  A forward returns what
its backward needs (``x_hat``/``inv_std`` for layer norm); the
backwards that two callers share live here too.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: GELU tanh-approximation constants: ``√(2/π)`` and the cubic term.
SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
GELU_C = 0.044715

#: Rows up to this long take their max column by column (see
#: :func:`row_max`); longer rows use numpy's reduction, which was
#: faster at 129 tokens and slower at 64 on a 2-core x86 host.
_COLUMN_MAX_LIMIT = 64


def inv_sqrt(n: int) -> float:
    """``1 / √n``: the temperature of attention scores over ``n``-wide
    heads and of the attention-pooling query."""
    return 1.0 / float(np.sqrt(n))


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, faster on short rows.

    numpy reduces a short last axis one row at a time; for attention
    scores over 16 tokens that costs ~10x more than ``n - 1``
    elementwise maxima across the columns.  A max is exact in any
    order, so the result is bit-identical either way.
    """
    n = x.shape[-1]
    if n > _COLUMN_MAX_LIMIT:
        return x.max(axis=-1, keepdims=True)
    out = x[..., :1].copy()
    for j in range(1, n):
        np.maximum(out, x[..., j:j + 1], out=out)
    return out


def _max_keepdims(x: np.ndarray, axis: int) -> np.ndarray:
    if axis in (-1, x.ndim - 1):
        return row_max(x)
    return x.max(axis=axis, keepdims=True)


def affine(x: np.ndarray, weight: np.ndarray,
           bias: Optional[np.ndarray] = None) -> np.ndarray:
    """``x @ weight + bias`` over the last axis of ``x``, through one
    2-D GEMM (the op order of :class:`~repro.nn.layers.Linear`)."""
    in_features, out_features = weight.shape
    flat = x.reshape(-1, in_features) if x.ndim != 2 else x
    out = flat @ weight
    if bias is not None:
        out += bias
    if x.ndim != 2:
        out = out.reshape(x.shape[:-1] + (out_features,))
    return out


def _softmax_into(out: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted softmax of ``x`` over ``axis`` written to ``out``,
    which may be ``x`` itself."""
    np.subtract(x, _max_keepdims(x, axis), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax over ``axis`` (max-shifted)."""
    return _softmax_into(np.empty_like(x), x, axis)


def softmax_grad(probs: np.ndarray, g: np.ndarray,
                 axis: int = -1) -> np.ndarray:
    """Gradient through ``probs = softmax(x, axis)`` for upstream ``g``:
    ``probs · (g − Σ g·probs)``."""
    return probs * (g - (g * probs).sum(axis=axis, keepdims=True))


def layer_norm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
               eps: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis: ``(out, x_hat, inv_std)`` where
    ``out = x_hat * weight + bias``.  ``weight`` and ``bias`` are
    ``(D,)`` arrays of ``x``'s dtype.

    Two full-size buffers: ``out`` overwrites the deviations and
    ``x_hat`` the squared deviations, so a caller that drops ``x_hat``
    (the engine) frees the newer one, as its former in-place norm did;
    the other way round ran the vt-divided engine slower on a 2-core
    host.
    """
    centered = x - x.mean(axis=-1, keepdims=True)
    squared = np.square(centered)
    var = squared.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = np.multiply(centered, inv_std, out=squared)
    out = np.multiply(x_hat, weight, out=centered)
    out += bias
    return out, x_hat, inv_std


def _gelu_tanh(z: np.ndarray) -> np.ndarray:
    """``t = tanh(√(2/π) (z + c z³))`` in a fresh array, with ``z³`` as
    ``z·z·z`` (``np.power`` on a non-square exponent is ~100x slower
    than repeated multiplication)."""
    t = z * z
    t *= z
    t *= GELU_C
    t += z
    t *= SQRT_2_OVER_PI
    return np.tanh(t, out=t)


def gelu(z: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU ``0.5 z (1 + t)``, computed as
    ``(1 + t) · 0.5 · z`` in ``t``'s buffer: the halving is exact, so
    the two orders agree bit for bit (pinned by ``tests/test_kernels.py``).

    One full-size buffer: also keeping ``t`` for the backward ran the
    vt-divided engine ~4-7% slower on a 2-core host, so
    :func:`gelu_grad` recomputes ``t`` instead, bit-identically.
    """
    out = _gelu_tanh(z)
    out += 1.0
    out *= 0.5
    out *= z
    return out


def gelu_grad(z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient through ``gelu(z)`` for upstream ``g``."""
    t = _gelu_tanh(z)
    dinner = SQRT_2_OVER_PI * (1.0 + 3 * GELU_C * (z * z))
    dt = (1.0 - t * t) * dinner
    return g * (0.5 * (1.0 + t) + 0.5 * z * dt)


def attention_weights(q: np.ndarray, k: np.ndarray,
                      scale: float) -> np.ndarray:
    """``softmax(q kᵀ · scale)`` over the keys, for ``(..., N, hd)``
    queries and keys.  ``scale`` is cast to ``q``'s dtype first, as the
    composed autograd path coerces scalars through ``Tensor``."""
    scores = q @ k.swapaxes(-1, -2)
    scores *= q.dtype.type(scale)
    return _softmax_into(scores, scores, -1)

