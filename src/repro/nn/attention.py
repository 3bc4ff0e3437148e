"""Multi-head attention with grouped-query heads and sliding-window mask.

This mirrors Mistral's attention: rotary position embeddings on q/k,
``n_kv_heads <= n_heads`` grouped-query attention, and a causal mask that
additionally limits each token to a trailing window of
``sliding_window`` positions.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor
from repro.tensor.random import default_rng
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.nn.rope import RotaryEmbedding, rotate

_NEG_INF = np.float32(-1e9)


def _freeze(mask: np.ndarray) -> np.ndarray:
    """Mark a cached mask read-only so shared copies cannot be corrupted."""
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=320)
def rect_attention_mask(
    q_len: int, kv_len: int, window: int | None, q_offset: int = 0
) -> np.ndarray:
    """Additive attention mask of shape ``(q_len, kv_len)``.

    Query ``i`` sits at position ``q_offset + i`` and key ``j`` at
    position ``j``.  Entry ``(i, j)`` is 0 when the key is not in the
    future and (with a window) not older than ``window`` positions,
    ``-1e9`` otherwise.  This mask is the one place the sliding window
    is enforced: KV caches keep every key.  ``rect_attention_mask(n, n,
    w)`` is the square causal mask of a full forward.

    Results are memoized and returned **read-only** — callers share the
    same array, so mutation would corrupt every future forward pass.
    """
    q_pos = (q_offset + np.arange(q_len))[:, None]
    k_pos = np.arange(kv_len)[None, :]
    allowed = k_pos <= q_pos
    if window is not None:
        allowed &= (q_pos - k_pos) < window
    return _freeze(np.where(allowed, np.float32(0.0), _NEG_INF).astype(np.float32))


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """``(B, T, n·hd) -> (B, n, T, hd)`` (a view)."""
    batch, seq, width = x.shape
    return x.reshape(batch, seq, n_heads, width // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """``(B, n, T, hd) -> (B, T, n·hd)``, the inverse of :func:`split_heads`."""
    batch, n_heads, seq, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq, n_heads * head_dim)


def _grouped_query(q: np.ndarray, n_kv_heads: int) -> np.ndarray:
    """Scaled queries ``(B, H, T, hd)`` laid out as ``(B, KV, G·T, hd)``."""
    batch, n_heads, q_len, head_dim = q.shape
    q = q * np.float32(1.0 / np.sqrt(head_dim))
    return q.reshape(batch, n_kv_heads, (n_heads // n_kv_heads) * q_len, head_dim)


def fused_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    n_kv_heads: int,
    mask: np.ndarray | None = None,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused scaled-dot-product attention over raw numpy arrays.

    Collapses the scale / mask / softmax / weighted-sum steps into one
    kernel: the ``1/sqrt(head_dim)`` scale is folded into ``q``,
    grouped-query heads are handled by reshaping ``q`` to
    ``(B, KV, group·T, hd)`` and batching the matmul against the
    un-repeated ``(B, KV, S, hd)`` keys/values (einsum
    ``bkgth,bksh->bkgts`` lowered to a single BLAS call per side — no
    head-repeat copies of the KV cache), the additive ``mask`` is applied
    only when given, and the softmax runs in place on the score buffer.

    Shapes: ``q`` is ``(B, H, T, hd)``, ``k``/``v`` are ``(B, KV, S, hd)``;
    ``mask`` broadcasts over ``(B, H, T, S)`` — either ``(T, S)`` or
    ``(B, 1, 1, S)`` / ``(B, H, T, S)``.  ``keep`` is an attention
    dropout multiplier laid out like the probabilities,
    ``(B, KV, group·T, S)``.  Returns ``(out, probs)``: merged heads
    ``(B, T, H·hd)`` and the softmax probabilities before dropout,
    which the training node's backward reuses.  Serves prefill
    (``T > 1``), the ``T == 1`` decode fast path (``mask=None``) and
    the training forward (:func:`attention`).
    """
    batch, n_heads, q_len, head_dim = q.shape
    group = n_heads // n_kv_heads
    kv_len = k.shape[2]
    q5 = _grouped_query(q, n_kv_heads)
    scores = np.matmul(q5, k.swapaxes(-1, -2))  # (B, KV, group*T, S)
    if mask is not None:
        scores = scores.reshape(batch, n_kv_heads, group, q_len, kv_len)
        if mask.ndim <= 2:
            scores = scores + mask  # (T, S) broadcasts over (B, KV, G, T, S)
        elif mask.ndim == 4 and mask.shape[1] == 1:
            scores = scores + mask[:, :, None]  # (B, 1, 1, S) -> (B, 1, 1, 1, S)
        elif mask.ndim == 4:
            scores = scores + mask.reshape(batch, n_kv_heads, group, *mask.shape[2:])
        else:
            raise ConfigError(f"attention mask must have ndim <= 4, got shape {mask.shape}")
        scores = scores.reshape(batch, n_kv_heads, group * q_len, kv_len)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    out = np.matmul(scores if keep is None else scores * keep, v)  # (B, KV, group*T, hd)
    out = out.reshape(batch, n_kv_heads, group, q_len, head_dim)
    return out.transpose(0, 3, 1, 2, 4).reshape(batch, q_len, n_heads * head_dim), scores


def attention(attn: "MultiHeadAttention", q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """One graph node for causal self-attention over q/k/v projections.

    ``q`` is ``(B, T, H·hd)`` and ``k``/``v`` are ``(B, T, KV·hd)``, the
    outputs of ``attn``'s projections.  The forward is the fused
    kernel's: RoPE (:meth:`MultiHeadAttention.heads_np`), the sliding
    window mask and :func:`fused_attention`, with ``attn``'s live
    dropout drawn as one ``(B, H, T, T)`` mask.  The backward keeps the
    grouped-query layout, so dK and dV come out of one batched matmul
    each against the un-repeated heads, and rotates dQ and dK back with
    the forward's RoPE tables.  Returns ``(B, T, H·hd)``.
    """
    batch, seq, _ = q.shape
    n_kv = attn.n_kv_heads
    tables = attn.rope.tables(np.arange(seq))
    qh, kh, vh = attn.heads_np(q.data, k.data, v.data, tables)
    keep = attn.attn_dropout.mask((batch, attn.n_heads, seq, seq))
    if keep is not None:  # (B, H, T, S) and (B, KV, G·T, S) share one memory order
        keep = keep.reshape(batch, n_kv, -1, seq)
    data, probs = fused_attention(
        qh, kh, vh, n_kv, rect_attention_mask(seq, seq, attn.sliding_window), keep
    )
    out = Tensor._result(data, (q, k, v))
    if out.requires_grad:

        def _backward():
            grad = out.grad.reshape(batch, seq, n_kv, -1, attn.head_dim)
            grad = grad.transpose(0, 2, 3, 1, 4).reshape(batch, n_kv, -1, attn.head_dim)
            if v.requires_grad:
                weights = probs if keep is None else probs * keep
                v._accumulate(merge_heads(np.matmul(weights.swapaxes(-1, -2), grad)))
            if not (q.requires_grad or k.requires_grad):
                return
            d_weights = np.matmul(grad, vh.swapaxes(-1, -2))  # (B, KV, G·T, S)
            if keep is not None:
                d_weights *= keep
            d_scores = probs * (d_weights - (d_weights * probs).sum(axis=-1, keepdims=True))
            if q.requires_grad:
                dq = np.matmul(d_scores, kh).reshape(qh.shape)
                dq *= np.float32(1.0 / np.sqrt(attn.head_dim))
                q._accumulate(merge_heads(rotate(dq, tables, inverse=True)))
            if k.requires_grad:
                dk = np.matmul(d_scores.swapaxes(-1, -2), _grouped_query(qh, n_kv))
                k._accumulate(merge_heads(rotate(dk, tables, inverse=True)))

        out._backward = _backward
    return out


class MultiHeadAttention(Module):
    """Grouped-query multi-head self-attention with RoPE."""

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        n_kv_heads: int | None = None,
        max_seq_len: int = 512,
        sliding_window: int | None = None,
        rope_theta: float = 10000.0,
        dropout: float = 0.0,
        rng=None,
    ):
        super().__init__()
        rng = default_rng(rng)
        n_kv_heads = n_kv_heads or n_heads
        if d_model % n_heads != 0:
            raise ConfigError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        if n_heads % n_kv_heads != 0:
            raise ConfigError(f"n_heads={n_heads} not divisible by n_kv_heads={n_kv_heads}")
        self.n_heads = n_heads
        self.n_kv_heads = n_kv_heads
        self.head_dim = d_model // n_heads
        self.sliding_window = sliding_window
        self.wq = Linear(d_model, n_heads * self.head_dim, bias=False, rng=rng)
        self.wk = Linear(d_model, n_kv_heads * self.head_dim, bias=False, rng=rng)
        self.wv = Linear(d_model, n_kv_heads * self.head_dim, bias=False, rng=rng)
        self.wo = Linear(n_heads * self.head_dim, d_model, bias=False, rng=rng)
        self.rope = RotaryEmbedding(self.head_dim, max_seq_len, theta=rope_theta)
        self.attn_dropout = Dropout(dropout, rng=rng)

    def heads_np(self, q: np.ndarray, k: np.ndarray, v: np.ndarray, tables, q_tables=None):
        """Raw projections ``(B, T, ·)`` to heads, with RoPE on q and k.

        ``tables`` are the RoPE tables gathered at the keys' positions
        (:meth:`RotaryEmbedding.tables`); one gather serves every layer
        of a forward.  Returns ``(B, H, T, hd)`` queries and
        ``(B, KV, T, hd)`` keys and values.  Shared by the training node
        and the fused kernel.  ``q_tables`` rotates queries that cover
        other positions than the keys (the kernel's readout); it
        defaults to ``tables``.
        """
        return (
            rotate(split_heads(q, self.n_heads), tables if q_tables is None else q_tables),
            rotate(split_heads(k, self.n_kv_heads), tables),
            split_heads(v, self.n_kv_heads),
        )

    def forward(self, x: Tensor) -> Tensor:
        """Causal (sliding-window) self-attention over the whole of ``x``.

        This is the autograd path, used for training and any forward
        with gradients on: the projections, one :func:`attention` node
        and the output projection.  Incremental decoding with a KV
        cache, per-row positions and explicit masks runs only through
        the fused inference kernel (:func:`repro.nn.quant.infer_logits_np`).
        """
        return self.wo(attention(self, self.wq(x), self.wk(x), self.wv(x)))
