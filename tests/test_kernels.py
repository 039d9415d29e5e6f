"""Pins for :mod:`repro.autograd.kernels`, the raw-numpy forwards under
both the autograd ops and the no-grad inference engine.

Each kernel is compared bit for bit with the composed numpy expressions
it replaced: the autograd forwards and backwards of
``autograd.functional`` and ``autograd.fused`` and the in-place engine
kernels, copied below as the reference.  Their last-axis max is written
``x.max(...)``, which ``row_max`` matches bit for bit (pinned here too).
A structural guard keeps kernel bodies from coming back into the engine
or the fused autograd ops.
"""

import ast
import collections
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import fused, kernels
from repro.autograd.kernels import _COLUMN_MAX_LIMIT
from repro.models import engine

DTYPES = (np.float32, np.float64)
HEAD_DIM = 3
SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

# ``x``, ``g``: (rows, width); ``w``, ``b``: (width,); ``q``: (rows, 3);
# ``k``: (width, 3); ``c``: (3,).
Case = collections.namedtuple("Case", "x g w b q k c")


def _shapes(rows, width):
    return ((rows, width), (rows, width), (width,), (width,),
            (rows, HEAD_DIM), (width, HEAD_DIM), (HEAD_DIM,))


@st.composite
def cases(draw):
    dtype = draw(st.sampled_from(DTYPES))
    rows = draw(st.integers(1, 4))
    width = draw(st.integers(1, 130))
    elements = st.floats(-8.0, 8.0, width=8 * np.dtype(dtype).itemsize)
    return Case(*(draw(hnp.arrays(dtype, shape, elements=elements))
                  for shape in _shapes(rows, width)))


def _fixed(width, dtype, rows=1):
    rng = np.random.default_rng(width)
    return Case(*(rng.uniform(-8.0, 8.0, shape).astype(dtype)
                  for shape in _shapes(rows, width)))


def edge_widths(test):
    """One-row examples at either side of the column-max limit, plus
    the narrowest and widest rows, in both dtypes."""
    for width in (1, _COLUMN_MAX_LIMIT - 1, _COLUMN_MAX_LIMIT,
                  _COLUMN_MAX_LIMIT + 1, 129, 130):
        for dtype in DTYPES:
            test = example(case=_fixed(width, dtype))(test)
    return test


def kernel_pin(test):
    return settings(max_examples=40, deadline=None)(
        edge_widths(given(case=cases())(test)))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    bits = np.uint32 if got.dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(got.view(bits), want.view(bits))


# -- the replaced expressions, as they were written -----------------------
def functional_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    data = exp / exp.sum(axis=axis, keepdims=True)
    return data


def functional_softmax_backward(data, g, axis=-1):
    dot = (g * data).sum(axis=axis, keepdims=True)
    return data * (g - dot)


def fused_softmax_backward(attn, g_attn):
    return attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))


def engine_softmax_inplace(scores):
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def functional_layer_norm(x, weight, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    data = x_hat * weight + bias
    return data, x_hat, inv_std


def engine_layer_norm(x, weight, bias, eps):
    c = x - x.mean(axis=-1, keepdims=True)
    var = np.square(c).mean(axis=-1, keepdims=True)
    c *= 1.0 / np.sqrt(var + np.float32(eps))
    c *= weight
    c += bias
    return c


def functional_gelu(v):
    inner = SQRT_2_OVER_PI * (v + 0.044715 * (v * v * v))
    t = np.tanh(inner)
    data = 0.5 * v * (1.0 + t)
    return data, t


def functional_gelu_backward(v, t, g):
    dinner = SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * (v * v))
    dt = (1.0 - t * t) * dinner
    return g * (0.5 * (1.0 + t) + 0.5 * v * dt)


def engine_gelu_inplace(z):
    inner = z * z
    inner *= z
    inner *= np.float32(0.044715)
    inner += z
    inner *= np.float32(np.sqrt(2.0 / np.pi))
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= 0.5
    inner *= z
    return inner


def linear_gelu_affine(flat, weight, bias):
    z = flat @ weight
    z = z + bias
    return z


def engine_site(x, weight, bias):
    in_features = weight.shape[0]
    shape = x.shape
    flat = x.reshape(-1, in_features) if x.ndim != 2 else x
    out = flat @ weight
    out += bias
    if x.ndim != 2:
        out = out.reshape(shape[:-1] + (out.shape[-1],))
    return out


def fused_attention_weights(qd, kd, scale):
    scale = qd.dtype.type(scale)
    scores = (qd @ kd.swapaxes(-1, -2)) * scale
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    attn = exp / exp.sum(axis=-1, keepdims=True)
    return attn


def engine_attention_weights(q, k, scale):
    scores = q @ k.swapaxes(-1, -2)
    scores *= np.float32(scale)
    return engine_softmax_inplace(scores)


# -- kernels against the references --------------------------------------
def test_row_max_matches_reduction():
    rng = np.random.default_rng(13)
    for n in (1, 5, 16, _COLUMN_MAX_LIMIT, _COLUMN_MAX_LIMIT + 1, 129):
        x = rng.standard_normal((3, 7, n)).astype(np.float32)
        np.testing.assert_array_equal(kernels.row_max(x),
                                      x.max(axis=-1, keepdims=True))


@kernel_pin
def test_row_max(case):
    assert_same_bits(kernels.row_max(case.x),
                     case.x.max(axis=-1, keepdims=True))


@kernel_pin
def test_softmax(case):
    x = case.x
    assert_same_bits(kernels.softmax(x), functional_softmax(x))
    assert_same_bits(kernels.softmax(x), engine_softmax_inplace(x.copy()))
    assert_same_bits(kernels.softmax(x, axis=0), functional_softmax(x, 0))


@kernel_pin
def test_softmax_grad(case):
    probs = functional_softmax(case.x)
    assert_same_bits(kernels.softmax_grad(probs, case.g),
                     functional_softmax_backward(probs, case.g))
    assert_same_bits(kernels.softmax_grad(probs, case.g),
                     fused_softmax_backward(probs, case.g))
    probs = functional_softmax(case.x, 0)
    assert_same_bits(kernels.softmax_grad(probs, case.g, axis=0),
                     functional_softmax_backward(probs, case.g, axis=0))


@kernel_pin
def test_layer_norm(case):
    got = kernels.layer_norm(case.x, case.w, case.b, 1e-5)
    for got_part, want_part in zip(
            got, functional_layer_norm(case.x, case.w, case.b, 1e-5)):
        assert_same_bits(got_part, want_part)
    if case.x.dtype == np.float32:
        assert_same_bits(got[0],
                         engine_layer_norm(case.x, case.w, case.b, 1e-5))


@kernel_pin
def test_gelu(case):
    out = kernels.gelu(case.x)
    assert_same_bits(out, functional_gelu(case.x)[0])
    if case.x.dtype == np.float32:
        assert_same_bits(out, engine_gelu_inplace(case.x))


@kernel_pin
def test_gelu_grad(case):
    _, t = functional_gelu(case.x)
    assert_same_bits(kernels.gelu_grad(case.x, case.g),
                     functional_gelu_backward(case.x, t, case.g))


@kernel_pin
def test_affine(case):
    got = kernels.affine(case.x, case.k, case.c)
    assert_same_bits(got, linear_gelu_affine(case.x, case.k, case.c))
    assert_same_bits(got, engine_site(case.x, case.k, case.c))
    stacked = case.x[None].repeat(2, axis=0)
    assert_same_bits(kernels.affine(stacked, case.k, case.c),
                     engine_site(stacked, case.k, case.c))


@kernel_pin
def test_attention_weights(case):
    scale = kernels.inv_sqrt(HEAD_DIM)
    got = kernels.attention_weights(case.q, case.k, scale)
    assert_same_bits(got, fused_attention_weights(case.q, case.k, scale))
    if case.q.dtype == np.float32:
        assert_same_bits(got,
                         engine_attention_weights(case.q, case.k, scale))


# -- structural guard -----------------------------------------------------
#: numpy calls that only a kernel body needs (softmax's exp, GELU's tanh,
#: layer norm's sqrt).
KERNEL_CALLS = {"exp", "tanh", "sqrt"}
#: Function names that mark a softmax, GELU or norm; in the guarded
#: modules such a function may only wrap a shared kernel.
KERNEL_NAMES = ("softmax", "gelu", "norm")


def kernel_body_violations(tree: ast.AST):
    """Places in ``tree`` that compute kernel math instead of calling
    :mod:`repro.autograd.kernels`."""
    shared = {"kernels"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and node.module == "repro.autograd.kernels":
            shared.update(alias.asname or alias.name
                          for alias in node.names)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in ("np", "numpy") \
                and node.func.attr in KERNEL_CALLS:
            found.append(f"line {node.lineno}: np.{node.func.attr}")
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend(f"line {node.lineno}: from numpy import "
                         f"{alias.name}" for alias in node.names
                         if alias.name in KERNEL_CALLS)
        if isinstance(node, ast.Constant) and node.value == 0.044715:
            found.append(f"line {node.lineno}: the GELU constant")
        if isinstance(node, ast.FunctionDef) \
                and any(name in node.name for name in KERNEL_NAMES):
            delegates = any(
                isinstance(call, ast.Call) and (
                    isinstance(call.func, ast.Name)
                    and call.func.id in shared
                    or isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id in shared)
                for call in ast.walk(node))
            if not delegates:
                found.append(f"line {node.lineno}: {node.name} computes "
                             "its own kernel")
    return found


@pytest.mark.parametrize("module", [engine, fused],
                         ids=lambda module: module.__name__)
def test_no_kernel_copies(module):
    tree = ast.parse(inspect.getsource(module))
    assert kernel_body_violations(tree) == []


@pytest.mark.parametrize("source", [
    "def _softmax_inplace(s):\n    s -= s.max()\n    return s\n",
    "def f(x):\n    return np.exp(x)\n",
    "def f(x):\n    return 1.0 / np.sqrt(x)\n",
    "from numpy import tanh\n",
    "C = 0.044715\n",
])
def test_guard_flags_kernel_bodies(source):
    assert kernel_body_violations(ast.parse(source))
