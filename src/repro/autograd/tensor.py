"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

The engine is deliberately small: tensors wrap ``numpy.ndarray`` data and
record a directed acyclic graph of operations.  Calling
:meth:`Tensor.backward` topologically sorts the graph and accumulates
gradients into ``Tensor.grad`` (a plain ndarray) for every tensor that has
``requires_grad=True``.

Broadcasting follows numpy semantics everywhere; gradients of broadcast
operands are reduced back to the operand shape via :func:`_unbroadcast`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Number, Sequence]

_GRAD_ENABLED = True

def is_grad_enabled() -> bool:
    """Return ``True`` when operations record the autodiff graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches the pre-broadcast ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum out leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: TensorLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if arr.dtype != dtype and np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(dtype)
    elif not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(dtype)
    return arr


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: TensorLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction / backward
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op-result node, recording the graph if grad is enabled."""
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @staticmethod
    def _node(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Unconditionally record an op-result node.

        Inference fast path: ops check ``_GRAD_ENABLED`` / parent
        ``requires_grad`` *before* building the backward closure and
        return a bare :class:`Tensor` when nothing records, so the
        grad-disabled dispatch skips closure and parent bookkeeping
        entirely.  Only reached when recording is known to be on.
        """
        out = Tensor(data)
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        ``fresh`` marks an array the calling backward closure built and
        holds no other reference to (a product, matmul or reduction).
        The first accumulation adopts such an array when its dtype
        matches and it is writeable; anything else (a pass-through of
        the node's own ``g``, a view of it, ``np.broadcast_to``) is
        copied, because a later ``+=`` into :attr:`grad` would write
        through to its other owners.
        """
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            if (fresh and grad.dtype == self.data.dtype
                    and grad.flags.writeable):
                self.grad = grad
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def _accumulate_at(self, index, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad[index]`` for a basic ``index``.

        Bit-identical to accumulating ``np.zeros_like(self.data)`` with
        ``grad`` scattered into it by ``np.add.at``: a basic index reads
        each element at most once, so a slice add is the same sum.
        Adding that full-size array also turns every ``-0.0`` already in
        :attr:`grad` into ``+0.0``; the in-place ``+= 0.0`` does the
        same without allocating, so signed zeros match as well.
        """
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad += 0.0
        self.grad[index] += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order: list[Tensor] = []
        visited = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free intermediate gradients/graph to bound memory.
                if node is not self and not node._is_leaf():
                    node.grad = None

    def _is_leaf(self) -> bool:
        return self._backward is None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other_t = _coerce(other)
        data = self.data + other_t.data
        if not _GRAD_ENABLED or not (self.requires_grad
                                     or other_t.requires_grad):
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g)
            if other_t.requires_grad:
                other_t._accumulate(g)

        return Tensor._node(data, (self, other_t), backward)

    __radd__ = __add__

    def __mul__(self, other: TensorLike) -> "Tensor":
        other_t = _coerce(other)
        data = self.data * other_t.data
        if not _GRAD_ENABLED or not (self.requires_grad
                                     or other_t.requires_grad):
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * other_t.data, fresh=True)
            if other_t.requires_grad:
                other_t._accumulate(g * self.data, fresh=True)

        return Tensor._node(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __sub__(self, other: TensorLike) -> "Tensor":
        other_t = _coerce(other)
        data = self.data - other_t.data
        if not _GRAD_ENABLED or not (self.requires_grad
                                     or other_t.requires_grad):
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g)
            if other_t.requires_grad:
                other_t._accumulate(-g, fresh=True)

        return Tensor._node(data, (self, other_t), backward)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return _coerce(other).__sub__(self)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other_t = _coerce(other)
        data = self.data / other_t.data
        if not _GRAD_ENABLED or not (self.requires_grad
                                     or other_t.requires_grad):
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / other_t.data, fresh=True)
            if other_t.requires_grad:
                other_t._accumulate(-g * self.data / (other_t.data ** 2),
                                    fresh=True)

        return Tensor._node(data, (self, other_t), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return _coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        data = -self.data
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g, fresh=True)

        return Tensor._node(data, (self,), backward)

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1),
                                 fresh=True)

        return Tensor._node(data, (self,), backward)

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other_t = _coerce(other)
        a, b = self.data, other_t.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError("matmul requires operands with ndim >= 2")
        data = a @ b
        if not _GRAD_ENABLED or not (self.requires_grad
                                     or other_t.requires_grad):
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                ga = g @ b.swapaxes(-1, -2)
                self._accumulate(_unbroadcast(ga, a.shape), fresh=True)
            if other_t.requires_grad:
                gb = a.swapaxes(-1, -2) @ g
                other_t._accumulate(_unbroadcast(gb, b.shape), fresh=True)

        return Tensor._node(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = g
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._node(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else _axis_size(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = g
            full = data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
                full = np.expand_dims(data, axis=axis)
            mask = (self.data == full).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True) if axis is not None
                               else mask.sum(), 1.0)
            self._accumulate(mask * grad, fresh=True)

        return Tensor._node(data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * np.sign(self.data), fresh=True)

        return Tensor._node(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(original))

        return Tensor._node(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return Tensor._node(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        if self.data.ndim and _is_basic_index(index):
            def backward(g: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate_at(index, g)
        else:
            def backward(g: np.ndarray) -> None:
                if not self.requires_grad:
                    return
                # An advanced index may repeat an element: scatter-add.
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, g)
                self._accumulate(grad, fresh=True)

        return Tensor._node(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise math (graph-recording)
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * data, fresh=True)

        return Tensor._node(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data, fresh=True)

        return Tensor._node(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * 0.5 / np.maximum(data, 1e-12),
                                 fresh=True)

        return Tensor._node(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - data * data), fresh=True)

        return Tensor._node(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        if not _GRAD_ENABLED or not self.requires_grad:
            return Tensor(data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
                self._accumulate(g * mask, fresh=True)

        return Tensor._node(data, (self,), backward)


def _is_basic_index(index) -> bool:
    """True for numpy *basic* indexing: ints (numpy integers included),
    slices, ``None``, ``Ellipsis`` or a tuple of these.  Such an index
    selects each element at most once; bools, lists and arrays (alone or
    in a tuple) are advanced indexing and may repeat one."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        part is None or part is Ellipsis or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts
    )


def _coerce(value: TensorLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _axis_size(shape: Tuple[int, ...], axis) -> int:
    if isinstance(axis, int):
        return shape[axis]
    size = 1
    for ax in axis:
        size *= shape[ax]
    return size


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def tensor(data: TensorLike, requires_grad: bool = False) -> Tensor:
    """Build a tensor from array-like data (float32 by default)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def randn(*shape, rng: Optional[np.random.Generator] = None,
          scale: float = 1.0, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    rng = rng or np.random.default_rng()
    data = rng.standard_normal(shape).astype(np.float32) * scale
    return Tensor(data, requires_grad=requires_grad)
