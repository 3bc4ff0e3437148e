"""Rotary positional embeddings (RoPE), split-half convention.

Mistral applies RoPE to queries and keys.  The table of cosines/sines is
precomputed up to ``max_seq_len`` and treated as a constant in the graph.
A rotation is orthogonal, so its backward is the inverse rotation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tensor import Tensor


class RotaryEmbedding:
    """Precomputed RoPE tables.

    Parameters
    ----------
    head_dim:
        Per-head dimension (must be even).
    max_seq_len:
        Longest sequence the table covers.
    theta:
        Base frequency (Mistral uses 10000.0).
    """

    def __init__(self, head_dim: int, max_seq_len: int, theta: float = 10000.0):
        if head_dim % 2 != 0:
            raise ShapeError(f"RoPE head_dim must be even, got {head_dim}")
        self.head_dim = head_dim
        self.max_seq_len = max_seq_len
        half = head_dim // 2
        freqs = 1.0 / (theta ** (np.arange(half, dtype=np.float64) / half))
        angles = np.outer(np.arange(max_seq_len, dtype=np.float64), freqs)
        self._cos = np.cos(angles).astype(np.float32)  # (max_seq_len, half)
        self._sin = np.sin(angles).astype(np.float32)

    def cos_sin(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cos/sin tables gathered at ``positions``, broadcast-ready.

        Returns arrays shaped ``(T, half)`` for ``(T,)`` positions or
        ``(B, 1, T, half)`` for ``(B, T)`` per-row positions, so either
        broadcasts over a ``(B, H, T, half)`` activation.
        """
        positions = np.asarray(positions)
        if positions.ndim > 2:
            raise ShapeError(f"positions must be (T,) or (B, T), got shape {positions.shape}")
        if positions.max(initial=0) >= self.max_seq_len:
            raise ShapeError(
                f"position {positions.max()} exceeds RoPE table length {self.max_seq_len}"
            )
        cos_table = self._cos[positions]  # (T, half) or (B, T, half)
        sin_table = self._sin[positions]
        if positions.ndim == 2:  # broadcast per-row tables over the head axis
            cos_table = cos_table[:, None, :, :]
            sin_table = sin_table[:, None, :, :]
        return cos_table, sin_table

    def apply(self, x: Tensor, positions: np.ndarray | None = None) -> Tensor:
        """Rotate ``x`` of shape ``(B, H, T, head_dim)`` by position.

        ``positions`` defaults to ``0..T-1``; pass explicit positions when
        decoding incrementally with a KV cache.  A ``(T,)`` array is
        shared across the batch; a ``(B, T)`` array gives every row its
        own positions (ragged batched decoding).  One graph node whose
        forward is :meth:`apply_np`.
        """
        if positions is None:
            positions = np.arange(x.shape[-2])
        out = Tensor._result(self.apply_np(x.data, positions), (x,))
        if out.requires_grad:

            def _backward():
                x._accumulate(self.apply_np(out.grad, positions, inverse=True))

            out._backward = _backward
        return out

    def apply_np(self, x: np.ndarray, positions: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Raw-numpy rotation, shared by the graph and the fused kernel.

        ``inverse`` rotates by the negative angles, which is the
        transpose of the forward rotation and so its backward.
        """
        cos, sin = self.cos_sin(positions)
        if inverse:
            sin = -sin
        half = self.head_dim // 2
        x1 = x[..., :half]
        x2 = x[..., half:]
        return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
