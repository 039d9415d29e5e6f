"""Functional ops on :class:`~repro.autograd.tensor.Tensor`.

Activations, numerically-stable fused softmax / log-softmax / layer-norm,
structural ops (concat, stack, pad, where) and the two classification
losses used by the multi-task SDL head.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd import kernels
from repro.autograd.tensor import (
    Tensor,
    _coerce,
    _unbroadcast,
    is_grad_enabled,
)


def _recording(*tensors: Tensor) -> bool:
    """True when an op over ``tensors`` must record the graph.

    Checked *before* the backward closure is built so the grad-disabled
    (inference) dispatch allocates neither closures nor parent tuples.
    """
    return is_grad_enabled() and any(t.requires_grad for t in tensors)


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)
    if not _recording(x):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * (x.data > 0), fresh=True)

    return Tensor._make(data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    z = x.data
    data = kernels.gelu(z)
    if not _recording(x):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(kernels.gelu_grad(z, g), fresh=True)

    return Tensor._make(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-x.data))
    if not _recording(x):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * data * (1.0 - data), fresh=True)

    return Tensor._make(data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


# ----------------------------------------------------------------------
# Fused, numerically-stable reductions
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    data = kernels.softmax(x.data, axis)
    if not _recording(x):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(kernels.softmax_grad(data, g, axis), fresh=True)

    return Tensor._make(data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - kernels._max_keepdims(x.data, axis)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_norm
    if not _recording(x):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            soft = np.exp(data)
            x._accumulate(g - soft * g.sum(axis=axis, keepdims=True),
                          fresh=True)

    return Tensor._make(data, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with affine parameters."""
    data, x_hat, inv_std = kernels.layer_norm(x.data, weight.data,
                                              bias.data, eps)
    if not _recording(x, weight, bias):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        n = x.data.shape[-1]
        if weight.requires_grad:
            weight._accumulate(_unbroadcast(g * x_hat, weight.data.shape),
                               fresh=True)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx_hat = g * weight.data
            term1 = gx_hat
            term2 = gx_hat.mean(axis=-1, keepdims=True)
            term3 = x_hat * (gx_hat * x_hat).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (term1 - term2 - term3), fresh=True)

    return Tensor._make(data, (x, weight, bias), backward)


# ----------------------------------------------------------------------
# Structural ops
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    if not _recording(*tensors):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                t._accumulate(g[tuple(index)])

    return Tensor._make(data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    if not _recording(*tensors):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        slices = np.moveaxis(g, axis, 0)
        for t, piece in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._make(data, tensors, backward)


def pad(x: Tensor, pad_width: Sequence[Tuple[int, int]]) -> Tensor:
    """Zero padding; ``pad_width`` follows ``numpy.pad`` conventions."""
    pad_width = tuple(tuple(p) for p in pad_width)
    data = np.pad(x.data, pad_width)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            index = tuple(
                slice(before, before + size)
                for (before, _), size in zip(pad_width, x.data.shape)
            )
            x._accumulate(g[index])

    return Tensor._make(data, (x,), backward)


def split(x: Tensor, sections: int, axis: int = 0) -> list:
    """Split into ``sections`` equal parts along ``axis``."""
    size = x.shape[axis]
    if size % sections != 0:
        raise ValueError(f"axis size {size} not divisible by {sections}")
    step = size // sections
    pieces = []
    for i in range(sections):
        index = [slice(None)] * x.ndim
        index[axis] = slice(i * step, (i + 1) * step)
        pieces.append(x[tuple(index)])
    return pieces


def tile(x: Tensor, reps: int, axis: int = 0) -> Tensor:
    """Repeat the tensor ``reps`` times along an existing axis."""
    if reps <= 0:
        raise ValueError("reps must be positive")
    return concat([x] * reps, axis=axis)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    a_t, b_t = _coerce(a), _coerce(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a_t.data, b_t.data)
    if not _recording(a_t, b_t):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        if a_t.requires_grad:
            a_t._accumulate(_unbroadcast(g * cond, a_t.data.shape),
                            fresh=True)
        if b_t.requires_grad:
            b_t._accumulate(_unbroadcast(g * ~cond, b_t.data.shape),
                            fresh=True)

    return Tensor._make(data, (a_t, b_t), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    if not _recording(x):
        return Tensor(x.data * mask)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask, fresh=True)

    return Tensor._make(x.data * mask, (x,), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add backward."""
    idx = np.asarray(indices, dtype=np.int64)
    data = weight.data[idx]
    if not _recording(weight):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        if weight.requires_grad:
            grad = np.zeros_like(weight.data)
            np.add.at(grad, idx, g)
            weight._accumulate(grad, fresh=True)

    return Tensor._make(data, (weight,), backward)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy over a batch of integer class targets.

    ``logits``: ``(B, C)``; ``targets``: ``(B,)`` int array.
    """
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    return -_pick_columns(logp, targets).mean()


def _pick_columns(x: Tensor, columns: np.ndarray) -> Tensor:
    """``x[i, columns[i]]`` for every row ``i`` of a 2-D ``x``.

    Each row is read once, so no element repeats and the backward adds
    with a plain fancy index, not ``np.add.at``: the same sums as the
    scatter-add of ``x[np.arange(len(x)), columns]``.
    """
    rows = np.arange(x.shape[0])
    data = x.data[rows, columns]
    if not _recording(x):
        return Tensor(data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            grad = np.zeros_like(x.data)
            grad[rows, columns] += g
            x._accumulate(grad, fresh=True)

    return Tensor._make(data, (x,), backward)


def binary_cross_entropy_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    pos_weight: Optional[np.ndarray] = None,
) -> Tensor:
    """Mean element-wise BCE on logits (numerically stable, fused).

    ``targets`` is a float array of the same shape as ``logits``.
    ``pos_weight`` optionally re-weights the positive term per class.
    """
    y = np.asarray(targets, dtype=logits.dtype)
    z = logits.data
    # log(1 + exp(-|z|)) formulation.
    log1p = np.log1p(np.exp(-np.abs(z)))
    per_elem = np.maximum(z, 0.0) - z * y + log1p
    weights = np.ones_like(per_elem)
    if pos_weight is not None:
        weights = y * np.asarray(pos_weight, dtype=z.dtype) + (1.0 - y)
        per_elem = per_elem * weights
    data = np.array(per_elem.mean(), dtype=z.dtype)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-z))
            grad = weights * (sig - y) / z.size
            logits._accumulate(g * grad, fresh=True)

    return Tensor._make(data, (logits,), backward)
