"""Reverse-mode automatic differentiation on numpy arrays.

This package is the compute substrate for the whole reproduction: a small,
correct, well-tested autodiff engine in the spirit of PyTorch's eager
autograd, sufficient to train video transformers and convolutional
baselines on CPU.

Public surface:

- :class:`Tensor` — an ndarray wrapper that records a computation graph.
- :func:`tensor`, :func:`zeros`, :func:`ones`, :func:`randn` — constructors.
- :func:`no_grad` / :func:`is_grad_enabled` — graph-recording control.
- ``repro.autograd.kernels`` — the raw-numpy forward kernels (affine,
  softmax, layer norm, GELU, attention weights) under both the autograd
  ops and the no-grad inference engine.
- ``repro.autograd.functional`` — activations, fused softmax/layer-norm,
  losses and structural ops (concat/stack/pad/where/...).
- ``repro.autograd.fused`` — single-node fused kernels for the
  transformer hot path (scaled-dot-product attention, linear+GELU).
- :func:`gradcheck` — numerical gradient verification used by the tests.
"""

from repro.autograd.tensor import (
    Tensor,
    is_grad_enabled,
    no_grad,
    ones,
    randn,
    tensor,
    zeros,
)
from repro.autograd import functional
from repro.autograd import fused
from repro.autograd import kernels
from repro.autograd.gradcheck import gradcheck

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "randn",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "fused",
    "kernels",
    "gradcheck",
]
