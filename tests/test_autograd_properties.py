"""Property-based tests (hypothesis) for the autodiff engine invariants."""

import importlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autograd import Tensor, gradcheck
from repro.autograd import functional as F

# ``repro.autograd.tensor`` the module, not the ``tensor`` constructor
# that the package exports under the same name.
tensor_module = importlib.import_module("repro.autograd.tensor")

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                          allow_infinity=False, width=32)


def small_arrays(max_dims=3, max_side=4):
    return arrays(
        dtype=np.float32,
        shape=array_shapes(min_dims=1, max_dims=max_dims, min_side=1,
                           max_side=max_side),
        elements=finite_floats,
    )


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_add_commutative(a):
    x, y = Tensor(a), Tensor(a[::-1].copy())
    np.testing.assert_allclose((x + y).data, (y + x).data)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_sum_then_backward_gives_ones(a):
    t = Tensor(a, requires_grad=True)
    t.sum().backward()
    np.testing.assert_array_equal(t.grad, np.ones_like(a))


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=2))
def test_softmax_is_distribution(a):
    if a.ndim == 1:
        a = a[None, :]
    y = F.softmax(Tensor(a), axis=-1).data
    assert (y >= 0).all()
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, rtol=1e-4)


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=2))
def test_relu_idempotent(a):
    x = Tensor(a)
    once = F.relu(x).data
    twice = F.relu(F.relu(x)).data
    np.testing.assert_array_equal(once, twice)


@settings(max_examples=20, deadline=None)
@given(small_arrays(max_dims=2, max_side=4))
def test_linear_chain_gradcheck(a):
    """Random small inputs through a nonlinear chain must pass gradcheck."""
    t = Tensor(a, requires_grad=True)
    gradcheck(lambda x: (x.tanh() * 0.5 + x ** 2).mean(), [t],
              atol=3e-2, rtol=8e-2)


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=3))
def test_reshape_roundtrip_preserves_grad_shape(a):
    t = Tensor(a, requires_grad=True)
    t.reshape(-1).reshape(a.shape).sum().backward()
    assert t.grad.shape == a.shape
    np.testing.assert_array_equal(t.grad, np.ones_like(a))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_matmul_identity(n, m):
    rng = np.random.default_rng(n * 10 + m)
    a = Tensor(rng.standard_normal((n, m)).astype(np.float32))
    eye = Tensor(np.eye(m, dtype=np.float32))
    np.testing.assert_allclose((a @ eye).data, a.data, rtol=1e-5)


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=2))
def test_bce_nonnegative(a):
    logits = Tensor(a if a.ndim == 2 else a[None, :])
    targets = (np.sign(logits.data) > 0).astype(np.float32)
    loss = F.binary_cross_entropy_with_logits(logits, targets)
    assert loss.item() >= 0.0


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=2))
def test_layer_norm_scale_invariance(a):
    """LayerNorm output is invariant to input scaling (up to eps effects)."""
    if a.ndim == 1:
        a = a[None, :]
    if a.shape[-1] < 2 or np.any(a.std(axis=-1) < 0.1):
        return
    w = Tensor(np.ones(a.shape[-1], dtype=np.float32))
    b = Tensor(np.zeros(a.shape[-1], dtype=np.float32))
    y1 = F.layer_norm(Tensor(a), w, b, eps=1e-8).data
    y2 = F.layer_norm(Tensor(a * 10.0), w, b, eps=1e-8).data
    np.testing.assert_allclose(y1, y2, atol=1e-3)


# ----------------------------------------------------------------------
# Getitem backward: a basic index adds into a slice of the parent's
# gradient, an advanced one scatter-adds; both must give the bits of the
# ``np.zeros_like`` + ``np.add.at`` reference, signed zeros included.
# ----------------------------------------------------------------------
signed_floats = st.one_of(st.sampled_from([0.0, -0.0]), finite_floats)


def _arrays(shape):
    return arrays(np.float32, shape, elements=signed_floats)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


@st.composite
def _axis_part(draw, side):
    kind = draw(st.sampled_from(["int", "np-int", "slice"]))
    if kind == "slice":
        bound = st.none() | st.integers(-side - 1, side + 1)
        step = st.none() | st.sampled_from([-3, -2, -1, 1, 2, 3])
        return slice(draw(bound), draw(bound), draw(step))
    value = draw(st.integers(-side, side - 1))
    return np.int64(value) if kind == "np-int" else value


@st.composite
def basic_indexes(draw, shape):
    """A numpy basic index into ``shape``: parts for a prefix and a
    suffix of the axes (an ``Ellipsis`` between them when they do not
    meet), ``None`` inserted anywhere, sometimes unwrapped from the
    tuple."""
    ndim = len(shape)
    head = draw(st.integers(0, ndim))
    tail = draw(st.integers(0, ndim - head))
    parts = [draw(_axis_part(shape[i])) for i in range(head)]
    if head + tail < ndim or draw(st.booleans()):
        parts.append(Ellipsis)
    parts += [draw(_axis_part(shape[i])) for i in range(ndim - tail, ndim)]
    for _ in range(draw(st.integers(0, 2))):
        parts.insert(draw(st.integers(0, len(parts))), None)
    if len(parts) == 1 and draw(st.booleans()):
        return parts[0]
    return tuple(parts)


@st.composite
def advanced_indexes(draw, shape):
    """Bool masks and integer arrays (with repeats) alone or in a tuple."""
    side = shape[0]
    rows = st.lists(st.integers(-side, side - 1), min_size=1, max_size=6)
    kinds = ["mask", "axis-mask", "array", "list"]
    if len(shape) > 1:
        kinds.append("array+slice")
    kind = draw(st.sampled_from(kinds))
    if kind == "mask":
        return draw(arrays(np.bool_, shape))
    if kind == "axis-mask":
        return draw(arrays(np.bool_, (side,)))
    if kind == "list":
        return draw(rows)
    picked = np.array(draw(rows))
    if kind == "array+slice":
        return (picked, slice(None, None, -1))
    return picked


@st.composite
def indexed(draw, basic):
    shape = draw(array_shapes(min_dims=1, max_dims=4, min_side=1,
                              max_side=5))
    strategy = basic_indexes if basic else advanced_indexes
    return draw(_arrays(shape)), draw(strategy(shape))


def _getitem_grad(a, index, g):
    x = Tensor(a, requires_grad=True)
    x[index].backward(g)
    return x.grad


def _reference_grad(a, index, g):
    grad = np.zeros_like(a)
    np.add.at(grad, index, g)
    return grad


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_basic_getitem_grad_matches_add_at_bitwise(data):
    a, index = data.draw(indexed(basic=True))
    assert tensor_module._is_basic_index(index)
    g = data.draw(_arrays(a[index].shape))
    np.testing.assert_array_equal(_bits(_getitem_grad(a, index, g)),
                                  _bits(_reference_grad(a, index, g)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_advanced_getitem_grad_matches_add_at_bitwise(data):
    a, index = data.draw(indexed(basic=False))
    assert not tensor_module._is_basic_index(index)
    g = data.draw(_arrays(a[index].shape))
    np.testing.assert_array_equal(_bits(_getitem_grad(a, index, g)),
                                  _bits(_reference_grad(a, index, g)))


def _scatter_everywhere():
    """Route every getitem backward through ``np.add.at``: the reference
    backward, as it was before basic indexes took the slice add."""
    return mock.patch.object(tensor_module, "_is_basic_index",
                             lambda index: False)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_parent_read_twice_and_elementwise_matches_scatter(data):
    """Two getitems of one parent plus ``x * w``: the accumulated
    gradient equals the all-scatter reference bit for bit, whatever the
    order in which the three contributions arrive."""
    a, first = data.draw(indexed(basic=True))
    second = data.draw(st.one_of(basic_indexes(a.shape),
                                 advanced_indexes(a.shape)))
    c1 = data.draw(_arrays(a[first].shape))
    c2 = data.draw(_arrays(a[second].shape))
    w = data.draw(_arrays(a.shape))
    order = data.draw(st.permutations([0, 1, 2]))

    def grad():
        x = Tensor(a, requires_grad=True)
        terms = [(x[first] * c1).sum(), (x[second] * c2).sum(),
                 (x * w).sum()]
        loss = terms[order[0]] + terms[order[1]] + terms[order[2]]
        loss.backward()
        return x.grad

    with _scatter_everywhere():
        reference = grad()
    np.testing.assert_array_equal(_bits(grad()), _bits(reference))
