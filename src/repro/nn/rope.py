"""Rotary positional embeddings (RoPE), split-half convention.

Mistral applies RoPE to queries and keys.  The table of cosines/sines is
precomputed up to ``max_seq_len`` and treated as a constant in the graph.
A rotation is orthogonal, so its backward is the inverse rotation.

The tables are stored full width in rotate-half form, ``C = [cos, cos]``
and ``S = [-sin, sin]``, so a rotation is ``x * C + swap_halves(x) * S``
(:func:`rotate`).  That equals the split-half formula
``[x1 cos - x2 sin, x1 sin + x2 cos]`` bit for bit: ``a + (-b)`` is
``a - b`` exactly and float addition commutes.  A forward gathers the
tables once (:meth:`RotaryEmbedding.tables`) and rotates q and k of every
layer with them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def rotate(
    x: np.ndarray, tables: tuple[np.ndarray, np.ndarray], inverse: bool = False
) -> np.ndarray:
    """Rotate ``x`` of shape ``(..., head_dim)`` by gathered ``tables``.

    ``tables`` is a ``(C, S)`` pair from :meth:`RotaryEmbedding.tables`
    (or rows of one).  ``inverse`` rotates by the negative angles, which
    is the transpose of the forward rotation and so its backward.  The
    one rotation of the kernel, the graph and the backward.
    """
    cos, sin = tables
    half = x.shape[-1] // 2
    swapped = np.concatenate([x[..., half:], x[..., :half]], axis=-1)
    swapped *= sin
    out = x * cos
    if inverse:
        out -= swapped
    else:
        out += swapped
    return out


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
        cos = np.cos(angles).astype(np.float32)  # (max_seq_len, half)
        sin = np.sin(angles).astype(np.float32)
        self._cos = np.concatenate([cos, cos], axis=-1)  # (max_seq_len, head_dim)
        self._sin = np.concatenate([-sin, sin], axis=-1)

    def tables(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full-width ``(C, S)`` tables gathered at ``positions``, broadcast-ready.

        Returns arrays shaped ``(T, head_dim)`` for ``(T,)`` positions or
        ``(B, 1, T, head_dim)`` for ``(B, T)`` per-row positions, so either
        broadcasts over a ``(B, H, T, head_dim)`` activation.  Raises
        :class:`~repro.errors.ShapeError` for a position beyond the table.
        """
        positions = np.asarray(positions)
        if positions.ndim > 2:
            raise ShapeError(f"positions must be (T,) or (B, T), got shape {positions.shape}")
        if positions.max(initial=0) >= self.max_seq_len:
            raise ShapeError(
                f"position {positions.max()} exceeds RoPE table length {self.max_seq_len}"
            )
        cos_table = self._cos[positions]  # (T, hd) or (B, T, hd)
        sin_table = self._sin[positions]
        if positions.ndim == 2:  # broadcast per-row tables over the head axis
            cos_table = cos_table[:, None, :, :]
            sin_table = sin_table[:, None, :, :]
        return cos_table, sin_table

