"""Functional ops that involve more than one tensor or integer inputs.

These complement the methods on :class:`~repro.tensor.Tensor` with the
pieces a causal language model needs: embedding lookup, numerically stable
softmax / log-softmax, token-level cross entropy with an ignore index, and
structural ops (concat, stack, where).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor

IGNORE_INDEX = -100


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    if not tensors:
        raise ShapeError("concat() requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor._result(data, tuple(tensors))
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward():
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    index = [slice(None)] * out.grad.ndim
                    index[axis] = slice(start, stop)
                    tensor._accumulate(out.grad[tuple(index)])

        out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    if not tensors:
        raise ShapeError("stack() requires at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)
    out = Tensor._result(data, tuple(tensors))
    if out.requires_grad:

        def _backward():
            for i, tensor in enumerate(tensors):
                if tensor.requires_grad:
                    tensor._accumulate(np.take(out.grad, i, axis=axis))

        out._backward = _backward
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``condition ? a : b``.

    ``condition`` is a plain boolean numpy array (it is not differentiated).
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out = Tensor._result(np.where(cond, a.data, b.data), (a, b))
    if out.requires_grad:

        def _backward():
            if a.requires_grad:
                from repro.tensor.tensor import _unbroadcast

                a._accumulate(_unbroadcast(out.grad * cond, a.shape))
            if b.requires_grad:
                from repro.tensor.tensor import _unbroadcast

                b._accumulate(_unbroadcast(out.grad * (~cond), b.shape))

        out._backward = _backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=axis, keepdims=True)
    out = Tensor._result(probs, (x,))
    if out.requires_grad:

        def _backward():
            g = out.grad
            dot = (g * probs).sum(axis=axis, keepdims=True)
            x._accumulate(probs * (g - dot))

        out._backward = _backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    logp = shifted - log_z
    out = Tensor._result(logp, (x,))
    if out.requires_grad:
        probs = np.exp(logp)

        def _backward():
            g = out.grad
            x._accumulate(g - probs * g.sum(axis=axis, keepdims=True))

        out._backward = _backward
    return out


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` by integer ``indices``.

    Backward scatter-adds into the embedding table, matching the dense
    gradient a one-hot matmul would produce.

    A ``(B, num_embeddings, dim)`` weight holds one table per row of
    ``(B, T)`` indices: row ``b`` gathers from (and scatters its
    gradient into) table ``b`` only.  Per-example gradient passes use
    this to give every example its own copy of the table.
    """
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("embedding indices must be integers")
    per_row = weight.ndim == 3
    if per_row and (idx.ndim != 2 or idx.shape[0] != weight.shape[0]):
        raise ShapeError(
            f"per-row embedding needs ({weight.shape[0]}, T) indices, got shape {idx.shape}"
        )
    vocab = weight.shape[-2]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise ShapeError(
            f"embedding index out of range [0, {vocab}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    if per_row:
        idx = (np.arange(idx.shape[0])[:, None], idx)
    out = Tensor._result(weight.data[idx], (weight,))
    if out.requires_grad:

        def _backward():
            grad = np.zeros_like(weight.data)
            np.add.at(grad, idx, out.grad)
            weight._accumulate(grad)

        out._backward = _backward
    return out


def _token_log_probs(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis of raw logits."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - log_z


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean token-level cross entropy.

    Parameters
    ----------
    logits:
        Shape ``(..., vocab)``; leading axes are flattened.
    targets:
        Integer array matching the leading axes of ``logits``.  Positions
        equal to ``ignore_index`` contribute nothing to loss or gradient.
    """
    tgt = np.asarray(targets)
    if tgt.shape != logits.shape[:-1]:
        raise ShapeError(
            f"targets shape {tgt.shape} does not match logits leading shape {logits.shape[:-1]}"
        )
    vocab = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, vocab)
    flat_tgt = tgt.reshape(-1)
    valid = flat_tgt != ignore_index
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ShapeError("cross_entropy received no valid (non-ignored) targets")

    logp = _token_log_probs(flat_logits)

    safe_tgt = np.where(valid, flat_tgt, 0)
    picked = logp[np.arange(flat_tgt.size), safe_tgt]
    loss_value = -(picked * valid).sum() / n_valid

    out = Tensor._result(np.asarray(loss_value, dtype=np.float32), (logits,))
    if out.requires_grad:
        probs = np.exp(logp)

        def _backward():
            grad = probs.copy()
            grad[np.arange(flat_tgt.size), safe_tgt] -= 1.0
            grad *= valid[:, None]
            grad *= float(out.grad) / n_valid
            logits._accumulate(grad.reshape(logits.shape))

        out._backward = _backward
    return out


def row_cross_entropy(
    logits: Tensor, targets: np.ndarray, ignore_index: int = IGNORE_INDEX
) -> Tensor:
    """Sum over rows of each row's mean token cross entropy.

    ``logits`` is ``(B, T, vocab)`` and ``targets`` ``(B, T)``.  Row
    ``b``'s logits receive exactly the gradient a one-row
    :func:`cross_entropy` on row ``b`` gives them, which is what lets one
    backward pass produce every example's own gradient.  Every row needs
    at least one target that is not ``ignore_index``.
    """
    tgt = np.asarray(targets)
    if logits.ndim != 3 or tgt.shape != logits.shape[:-1]:
        raise ShapeError(
            f"row_cross_entropy needs (B, T, vocab) logits and (B, T) targets; "
            f"got {logits.shape} and {tgt.shape}"
        )
    valid = tgt != ignore_index
    n_valid = valid.sum(axis=1)
    if not n_valid.all():
        raise ShapeError("row_cross_entropy received a row with no valid targets")
    logp = _token_log_probs(logits.data)
    safe_tgt = np.where(valid, tgt, 0)
    rows = np.arange(tgt.shape[0])[:, None]
    cols = np.arange(tgt.shape[1])[None, :]
    picked = logp[rows, cols, safe_tgt]
    loss_value = -((picked * valid).sum(axis=1) / n_valid).sum()

    out = Tensor._result(np.asarray(loss_value, dtype=np.float32), (logits,))
    if out.requires_grad:
        probs = np.exp(logp)

        def _backward():
            grad = probs.copy()
            grad[rows, cols, safe_tgt] -= 1.0
            grad *= valid[..., None]
            # One float32 scale per row, rounded as cross_entropy rounds it.
            scale = np.array([float(out.grad) / int(n) for n in n_valid], dtype=np.float32)
            grad *= scale[:, None, None]
            logits._accumulate(grad)

        out._backward = _backward
    return out
