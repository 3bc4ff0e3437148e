"""Basic layers: Linear, Embedding, RMSNorm.

Linear layers (plain, biased, unmerged LoRA and the tied head) and
RMSNorm are each one autograd node: :func:`linear` and :func:`rms_norm`
run the raw forward the fused inference kernel runs
(:func:`linear_np`, :func:`rms_norm_np`) and backpropagate through a
hand-written numpy backward.  Every node also takes per-row parameter
copies: a ``(B, *shape)`` weight (``(B, 1, n)`` for a 1-D one) gives
row ``b`` of a ``(B, T, ...)`` input its own weight and keeps row
``b``'s gradient in ``grad[b]``.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, embedding
from repro.tensor.random import default_rng, kaiming_init
from repro.nn.module import Module, Parameter


def _weight_grad(grad: np.ndarray, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Gradient of ``x @ weight^T`` with respect to ``weight``.

    A shared ``(out, in)`` weight sums over every leading axis in one
    GEMM; a per-row ``(B, out, in)`` weight keeps one gradient per row.
    """
    if weight.ndim == 3:
        return np.matmul(grad.swapaxes(-1, -2), x)
    return grad.reshape(-1, grad.shape[-1]).T @ x.reshape(-1, x.shape[-1])


def _vector_grad(grad: np.ndarray, param: np.ndarray) -> np.ndarray:
    """Sum ``grad`` down to a bias or norm weight: ``(n,)`` or per-row ``(B, 1, n)``."""
    if param.ndim == 3:
        return grad.sum(axis=1, keepdims=True)
    return grad.reshape(-1, grad.shape[-1]).sum(axis=0)


def linear_np(x: np.ndarray, weight: np.ndarray, bias=None, lora=None):
    """Raw forward of the linear node: ``x @ W^T (+ b) (+ s * (x @ A^T) @ B^T)``.

    ``lora`` is ``None`` or ``(A, B, scaling)`` for an unmerged LoRA
    adapter.  Returns ``(out, h)`` with ``h = x @ A^T`` (``None``
    without LoRA), which the backward needs.  The fused inference
    kernel and the graph both run this function.
    """
    out = x @ weight.swapaxes(-1, -2)
    if bias is not None:
        out += bias
    if lora is None:
        return out, None
    lora_a, lora_b, scaling = lora
    h = x @ lora_a.swapaxes(-1, -2)
    delta = h @ lora_b.swapaxes(-1, -2)
    delta *= scaling
    out += delta
    return out, h


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None, lora=None) -> Tensor:
    """One graph node for a linear layer; forward is :func:`linear_np`.

    ``lora`` is ``None`` or ``(A, B, scaling)`` with the adapter
    factors as tensors.
    """
    raw_lora = None
    parents = (x, weight) if bias is None else (x, weight, bias)
    if lora is not None:
        lora_a, lora_b, scaling = lora
        raw_lora = (lora_a.data, lora_b.data, scaling)
        parents += (lora_a, lora_b)
    data, h = linear_np(x.data, weight.data, None if bias is None else bias.data, raw_lora)
    out = Tensor._result(data, parents)
    if out.requires_grad:

        def _backward():
            grad = out.grad
            if weight.requires_grad:
                weight._accumulate(_weight_grad(grad, x.data, weight.data))
            if bias is not None and bias.requires_grad:
                bias._accumulate(_vector_grad(grad, bias.data))
            dx = grad @ weight.data if x.requires_grad else None
            if lora is not None:
                grad_u = grad * np.float32(scaling)
                if lora_b.requires_grad:
                    lora_b._accumulate(_weight_grad(grad_u, h, lora_b.data))
                if lora_a.requires_grad or dx is not None:
                    dh = grad_u @ lora_b.data
                    if lora_a.requires_grad:
                        lora_a._accumulate(_weight_grad(dh, x.data, lora_a.data))
                    if dx is not None:
                        dx += dh @ lora_a.data
            if dx is not None:
                x._accumulate(dx)

        out._backward = _backward
    return out


def rms_norm_np(x: np.ndarray, weight: np.ndarray, eps: float):
    """Raw RMSNorm ``x * inv * w`` with ``inv = (mean(x^2) + eps)^-1/2``.

    Returns ``(out, inv)``; the mean divides the sum by ``n``.  Shared
    by the fused inference kernel and :func:`rms_norm`.
    """
    ms = (x * x).sum(axis=-1, keepdims=True)
    ms /= x.shape[-1]  # same bits as np.mean, less call overhead
    ms += eps
    inv = np.power(ms, -0.5, out=ms)
    out = x * inv
    out *= weight
    return out, inv


def rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    """One graph node for RMSNorm; forward is :func:`rms_norm_np`."""
    data, inv = rms_norm_np(x.data, weight.data, eps)
    out = Tensor._result(data, (x, weight))
    if out.requires_grad:

        def _backward():
            grad = out.grad
            if weight.requires_grad:
                weight._accumulate(_vector_grad(grad * (x.data * inv), weight.data))
            if x.requires_grad:
                grad_n = grad * weight.data
                dot = (grad_n * x.data).sum(axis=-1, keepdims=True)
                dot /= x.shape[-1]
                x._accumulate(grad_n * inv - x.data * (inv * inv * inv * dot))

        out._backward = _backward
    return out


class Linear(Module):
    """Affine map ``y = x @ W^T + b``.

    Weight is stored as ``(out_features, in_features)`` to match the usual
    convention (and checkpoint layouts).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None):
        super().__init__()
        rng = default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        init = kaiming_init(in_features)
        self.weight = Parameter(init((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Embedding(Module):
    """Token embedding table of shape ``(num_embeddings, dim)``."""

    def __init__(self, num_embeddings: int, dim: int, rng=None, std: float = 0.02):
        super().__init__()
        rng = default_rng(rng)
        self.num_embeddings = num_embeddings
        self.dim = dim
        # Draw rows in bounded chunks straight into a float32 table: a
        # single rng.normal() call materializes a float64 intermediate
        # twice the table size.  Chunked draws consume the identical bit
        # stream, so seeded models stay weight-identical.
        table = np.empty((num_embeddings, dim), dtype=np.float32)
        rows_per_chunk = max(1, (1 << 20) // max(1, 8 * dim))  # <= ~1 MiB float64 scratch
        for start in range(0, num_embeddings, rows_per_chunk):
            stop = min(start + rows_per_chunk, num_embeddings)
            table[start:stop] = rng.normal(0.0, std, size=(stop - start, dim))
        self.weight = Parameter(table)

    def forward(self, indices: np.ndarray) -> Tensor:
        return embedding(self.weight, indices)

    def project(self, x: Tensor) -> Tensor:
        """Tied LM head: project hidden states onto the vocabulary.

        ``(..., dim) -> (..., num_embeddings)`` via ``x @ W^T`` with the
        same table used for lookups.  :class:`~repro.nn.quant.QuantizedEmbedding`
        implements the identical contract over int8 rows, which is what
        lets ``quantize_model`` swap the tied embedding/head pair as one
        unit.
        """
        return linear(x, self.weight)


class RMSNorm(Module):
    """Root-mean-square normalization (Mistral / Llama style, no bias)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(dim, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return rms_norm(x, self.weight, self.eps)
