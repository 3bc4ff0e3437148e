"""The :class:`Tensor` class: a numpy array with reverse-mode autodiff.

Only floating point tensors participate in differentiation.  Integer data
(token ids, class targets) is passed around as plain numpy arrays and
consumed by the dedicated ops in :mod:`repro.tensor.ops` (``embedding``,
``cross_entropy``).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import GradientError, ShapeError


class _GradMode(threading.local):
    """Per-thread grad mode; every thread starts with recording on.

    Serving threads score under :func:`no_grad` while another thread
    may be training, so the flag cannot be process-wide: overlapping
    contexts in two threads would restore each other's saved value and
    could leave recording off everywhere.
    """

    enabled = True


_GRAD_MODE = _GradMode()


def is_grad_enabled() -> bool:
    """Return whether new operations on this thread are recorded on the tape."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording on this thread.

    Used for evaluation and generation, where building the graph would
    only waste memory.  Other threads keep their own grad mode.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Broadcasting may have added leading axes or stretched size-1 axes;
    gradients flowing back must be summed over those axes.
    """
    # Sum over extra leading axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _released() -> None:
    raise GradientError(
        "backward() reached a node of a graph that an earlier backward() released"
    )


def _is_basic_index(index) -> bool:
    """Whether ``index`` only holds ints, slices and ``Ellipsis``.

    Such an index selects every element at most once, so its backward
    can add into the selected view directly instead of ``np.add.at``.
    """
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        part is Ellipsis
        or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, (bool, np.bool_)))
        for part in parts
    )


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A float32 numpy array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts; converted to ``float32``.
    requires_grad:
        Whether gradients should accumulate into ``.grad`` on backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), name: str | None = None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
        self._parents = _parents
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        """Create an op result, recording parents only if grad is enabled."""
        tracked = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=tracked, _parents=tuple(parents) if tracked else ())
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        out.name = self.name
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones for scalars; for non-scalar outputs an
        explicit seed gradient must be provided.

        The graph is released as it goes: once an interior node has
        handed its gradient to its parents, its ``.grad``, backward
        closure and parent links are dropped, so the graph is freed by
        reference count instead of waiting for the cyclic garbage
        collector.  Leaves keep their ``.grad``.  A second backward that
        reaches a released node raises :class:`~repro.errors.GradientError`.
        """
        if not self.requires_grad:
            raise GradientError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without a seed gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float32)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"seed gradient shape {grad.shape} does not match tensor shape {self.shape}"
                )

        order: list[Tensor] = []
        visited: set[int] = set()
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
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf
            if node.grad is not None:
                node._backward()
            node.grad = None
            node._backward = _released
            node._parents = ()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        out = Tensor._result(self.data + other.data, (self, other))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad, other.shape))

            out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor._result(-self.data, (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(-out.grad)

            out._backward = _backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        out = Tensor._result(self.data * other.data, (self, other))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        out = Tensor._result(self.data / other.data, (self, other))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(-out.grad * self.data / (other.data**2), other.shape)
                    )

            out._backward = _backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log composition")
        out = Tensor._result(self.data**exponent, (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Matrix multiply
    # ------------------------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        try:
            data = self.data @ other.data
        except ValueError as exc:
            raise ShapeError(f"matmul shapes {self.shape} @ {other.shape}: {exc}") from exc
        out = Tensor._result(data, (self, other))
        if out.requires_grad:

            def _backward():
                grad = out.grad
                if self.requires_grad:
                    if other.data.ndim == 1:
                        # (…, n) @ (n,) -> (…): outer-product style backward.
                        self._accumulate(
                            _unbroadcast(np.expand_dims(grad, -1) * other.data, self.shape)
                        )
                    else:
                        g = grad @ np.swapaxes(other.data, -1, -2)
                        self._accumulate(_unbroadcast(g, self.shape))
                if other.requires_grad:
                    if self.data.ndim == 1:
                        g = np.outer(self.data, grad) if grad.ndim == 1 else self.data[:, None] * grad
                        other._accumulate(_unbroadcast(g, other.shape))
                    elif other.data.ndim == 1:
                        g = (np.swapaxes(self.data, -1, -2) @ np.expand_dims(grad, -1))[..., 0]
                        other._accumulate(_unbroadcast(g, other.shape))
                    else:
                        g = np.swapaxes(self.data, -1, -2) @ grad
                        other._accumulate(_unbroadcast(g, other.shape))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        out = Tensor._result(data, (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * data)

            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = Tensor._result(np.log(self.data), (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad / self.data)

            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        out = Tensor._result(data, (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * 0.5 / data)

            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        out = Tensor._result(data, (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * (1.0 - data**2))

            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor._result(data, (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * data * (1.0 - data))

            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = Tensor._result(self.data * mask, (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * mask)

            out._backward = _backward
        return out

    def silu(self) -> "Tensor":
        """SiLU (swish): ``x * sigmoid(x)`` — Mistral's activation."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        data = self.data * sig
        out = Tensor._result(data, (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * (sig * (1.0 + self.data * (1.0 - sig))))

            out._backward = _backward
        return out

    def gelu(self) -> "Tensor":
        """Tanh-approximate GELU."""
        c = np.float32(np.sqrt(2.0 / np.pi))
        inner = c * (self.data + 0.044715 * self.data**3)
        t = np.tanh(inner)
        data = 0.5 * self.data * (1.0 + t)
        out = Tensor._result(data, (self,))
        if out.requires_grad:

            def _backward():
                dinner = c * (1.0 + 3 * 0.044715 * self.data**2)
                local = 0.5 * (1.0 + t) + 0.5 * self.data * (1.0 - t**2) * dinner
                self._accumulate(out.grad * local)

            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = Tensor._result(np.abs(self.data), (self,))
        if out.requires_grad:
            sign = np.sign(self.data)

            def _backward():
                self._accumulate(out.grad * sign)

            out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside."""
        data = np.clip(self.data, low, high)
        out = Tensor._result(data, (self,))
        if out.requires_grad:
            inside = ((self.data >= low) & (self.data <= high)).astype(np.float32)

            def _backward():
                self._accumulate(out.grad * inside)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:

            def _backward():
                grad = out.grad
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis)
                self._accumulate(np.broadcast_to(grad, self.shape).astype(np.float32))

            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) * (self - mu)
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor._result(data, (self,))
        if out.requires_grad:

            def _backward():
                grad = out.grad
                maxed = data
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis)
                    maxed = np.expand_dims(maxed, axis)
                mask = (self.data == maxed).astype(np.float32)
                # Split gradient among ties, matching subgradient convention.
                mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
                self._accumulate(mask * grad)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor._result(self.data.reshape(shape), (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad.reshape(self.shape))

            out._backward = _backward
        return out

    def transpose(self, axes: Iterable[int]) -> "Tensor":
        axes = tuple(axes)
        out = Tensor._result(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inverse = tuple(np.argsort(axes))

            def _backward():
                self._accumulate(out.grad.transpose(inverse))

            out._backward = _backward
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out = Tensor._result(np.swapaxes(self.data, a, b), (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(np.swapaxes(out.grad, a, b))

            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = Tensor._result(self.data[index], (self,))
        if out.requires_grad:
            basic = _is_basic_index(index)

            def _backward():
                grad = np.zeros_like(self.data)
                if basic:
                    grad[index] += out.grad
                else:  # fancy indices may repeat: accumulate every hit
                    np.add.at(grad, index, out.grad)
                self._accumulate(grad)

            out._backward = _backward
        return out
