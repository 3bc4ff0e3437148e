"""Int8 weight-only quantization and the fused raw-numpy inference path.

Two tightly coupled pieces live here:

* :class:`QuantizedLinear` / :class:`QuantizedEmbedding` — weight-only
  int8 storage with **symmetric per-output-channel float32 scales**
  (``scale[o] = max|W[o, :]| / 127``), cutting weight memory ~4x.  The
  forward computes ``x @ W_q^T * scale``.  The ``(out, in)`` int8 weight
  is stored in Fortran order, so ``W_q^T`` — the ``(in, out)`` operand
  the matmul reads — is C-contiguous: numpy casts it to float32 once per
  call (a contiguous copy, not a strided gather) and runs sgemm on the
  cast; the scale is applied to the output.  Quantization is
  inference-only — driving a quantized layer from a gradient-recording
  graph raises :class:`~repro.errors.QuantizationError`.

* :func:`infer_logits_np` — the **fused raw-numpy kernel** that is the
  inference forward of every :class:`~repro.nn.MistralTiny`, float and
  int8 alike: one Python call per layer instead of one autograd
  ``Tensor`` per op, with attention collapsed into the single
  einsum-style kernel :func:`repro.nn.attention.fused_attention`.
  ``MistralTiny.forward`` runs it whenever gradients are off; the
  autograd graph is the training path only.  The graph's layer
  nodes run the same raw forwards (``linear_np``, ``rms_norm_np``,
  ``fused_attention``, ``swiglu_np``), so for a float model — including
  unmerged LoRA adapters — the kernel's logits equal the graph's bit
  for bit.

:func:`quantize_model` is the compile pass that walks a ``Module`` tree
swapping eligible layers for their int8 twins.  It must run **after**
:func:`repro.lora.merge_lora` (unmerged adapters are refused), bumps
``weight_version`` so :meth:`~repro.nn.cache.PrefixCache.sync`
invalidates stale KV/logit entries, and the resulting model round-trips
through ``state_dict()/load_state_dict()`` (int8 buffers keep their
dtype), which is what the cluster's stage->drain->swap rolling deploys
need.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, QuantizationError, ShapeError
from repro.tensor import Tensor, is_grad_enabled
from repro.nn.attention import (
    MultiHeadAttention,
    fused_attention,
    rect_attention_mask,
)
from repro.nn.layers import Embedding, Linear, RMSNorm, linear_np, rms_norm_np
from repro.nn.mlp import SwiGLU, swiglu_np
from repro.nn.module import Buffer, Module, ModuleList, Parameter

#: Attribute names swapped by default: attention q/k/v/o projections,
#: the SwiGLU gate/up/down projections, and an untied LM head.  The
#: classifier ``head`` is opt-in via ``quantize_head=True``.
DEFAULT_TARGETS = frozenset({"wq", "wk", "wv", "wo", "w1", "w2", "w3", "lm_head"})

_QMAX = 127.0


def quantize_weight(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8 quantization of ``(out, in)`` weights.

    Returns ``(w_q, scale)`` with ``w_q`` int8 and ``scale`` float32 of
    shape ``(out,)`` such that ``w_q[o, :] * scale[o] ~= W[o, :]`` with
    per-element error at most ``scale[o] / 2`` (round-to-nearest).
    All-zero rows get scale 1.0 so dequantization stays exact.
    """
    w = np.asarray(weight, dtype=np.float32)
    if w.ndim != 2:
        raise QuantizationError(f"expected a 2-D weight, got shape {w.shape}")
    absmax = np.abs(w).max(axis=1)
    scale = np.where(absmax > 0, absmax / np.float32(_QMAX), np.float32(1.0)).astype(np.float32)
    w_q = np.clip(np.rint(w / scale[:, None]), -_QMAX, _QMAX).astype(np.int8)
    return w_q, scale


def _guard_inference_only(x, what: str) -> None:
    if is_grad_enabled() and getattr(x, "requires_grad", False):
        raise QuantizationError(
            f"{what} is inference-only: it stores int8 weights with no backward. "
            "Run under no_grad() (generation/scoring already does), or keep a "
            "float model for training."
        )


class QuantizedLinear(Module):
    """Weight-only int8 linear layer: ``y = (x @ W_q^T) * scale + b``.

    ``weight_q`` (int8, ``(out, in)``) and ``scale`` (float32) are
    :class:`Buffer`\\ s, so ``state_dict`` round-trips preserve their
    dtypes.  ``weight_q`` is held in Fortran order so that ``W_q^T`` is
    C-contiguous (see :meth:`matmul_np`); ``load_state_dict`` keeps that
    layout.  The bias, when present, stays float32 (its memory is
    negligible and biases are precision-sensitive).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = False):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight_q = Buffer(np.zeros((out_features, in_features), dtype=np.int8, order="F"))
        self.scale = Buffer(np.ones(out_features, dtype=np.float32))
        if bias:
            self.bias = Parameter(np.zeros(out_features, dtype=np.float32), requires_grad=False)
        else:
            self.bias = None

    @classmethod
    def from_linear(cls, linear: Linear) -> "QuantizedLinear":
        q = cls(linear.in_features, linear.out_features, bias=linear.bias is not None)
        w_q, scale = quantize_weight(linear.weight.data)
        q.weight_q.data = np.asfortranarray(w_q)
        q.scale.data = scale
        if linear.bias is not None:
            q.bias.data = linear.bias.data.copy()
        return q

    def matmul_np(self, x: np.ndarray) -> np.ndarray:
        # float32 @ int8 casts the int8 operand to one float32 temporary
        # per call and runs sgemm on it; weight_q.T is C-contiguous (the
        # weight is stored in Fortran order), so the cast is a contiguous
        # copy.  Leading dims are flattened first — a single 2-D GEMM is
        # substantially faster than a batched 3-D matmul at decode shapes.
        lead = x.shape[:-1]
        out = np.matmul(x.reshape(-1, x.shape[-1]), self.weight_q.data.T)
        out *= self.scale.data
        if self.bias is not None:
            out += self.bias.data
        return out.reshape(*lead, self.out_features)

    def forward(self, x: Tensor) -> Tensor:
        _guard_inference_only(x, "QuantizedLinear")
        return Tensor(self.matmul_np(x.data))


class QuantizedEmbedding(Module):
    """Int8 token-embedding table with per-row scales.

    Implements both directions of a tied embedding/head pair: row
    lookups (:meth:`forward`) dequantize only the gathered rows, and
    :meth:`project` maps hidden states onto the vocabulary with the same
    matmul as :class:`QuantizedLinear` — which is why ``quantize_model``
    can swap a tied ``tok_embed`` as one unit.  ``weight_q`` is stored in
    Fortran order for the same reason as there: the projection reads
    ``W_q^T`` as a C-contiguous ``(dim, vocab)`` operand.
    """

    def __init__(self, num_embeddings: int, dim: int):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight_q = Buffer(np.zeros((num_embeddings, dim), dtype=np.int8, order="F"))
        self.scale = Buffer(np.ones(num_embeddings, dtype=np.float32))

    @classmethod
    def from_embedding(cls, emb: Embedding) -> "QuantizedEmbedding":
        q = cls(emb.num_embeddings, emb.dim)
        w_q, scale = quantize_weight(emb.weight.data)
        q.weight_q.data = np.asfortranarray(w_q)
        q.scale.data = scale
        return q

    def lookup_np(self, indices) -> np.ndarray:
        idx = np.asarray(indices)
        rows = self.weight_q.data[idx].astype(np.float32)
        rows *= self.scale.data[idx][..., None]
        return rows

    def forward(self, indices) -> Tensor:
        return Tensor(self.lookup_np(indices))

    def project_np(self, x: np.ndarray) -> np.ndarray:
        lead = x.shape[:-1]
        out = np.matmul(x.reshape(-1, x.shape[-1]), self.weight_q.data.T)
        out *= self.scale.data
        return out.reshape(*lead, self.num_embeddings)

    def project(self, x: Tensor) -> Tensor:
        _guard_inference_only(x, "QuantizedEmbedding")
        return Tensor(self.project_np(x.data))


# ----------------------------------------------------------------------
# The compile pass
# ----------------------------------------------------------------------


def _iter_modules(root: Module):
    stack = [root]
    seen: set[int] = set()
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        yield current
        for value in vars(current).values():
            if isinstance(value, Module):
                stack.append(value)
            elif isinstance(value, ModuleList):
                stack.extend(list(value))


def quantize_model(
    model: Module,
    dtype: str = "int8",
    quantize_embeddings: bool = True,
    quantize_head: bool = False,
    targets=None,
) -> Module:
    """Swap eligible layers for int8 twins and fuse the inference path.

    Walks the module tree replacing every :class:`~repro.nn.Linear`
    whose attribute name is in ``targets`` (default:
    attention q/k/v/o + SwiGLU w1/w2/w3 + ``lm_head``; add the
    classifier ``head`` with ``quantize_head=True``) with a
    :class:`QuantizedLinear`, and — when ``quantize_embeddings`` —
    every :class:`~repro.nn.Embedding` with a
    :class:`QuantizedEmbedding`.  Merged LoRA wrappers at target names
    are collapsed onto their (already merged) base weight; **unmerged**
    adapters raise, because quantizing would silently drop the adapter
    delta: call :func:`repro.lora.merge_lora` first.

    ``weight_version`` is then bumped exactly once so
    :meth:`PrefixCache.sync` flushes KV/logit entries computed under
    float weights.  No-grad forwards of the result run the fused
    kernel, :func:`infer_logits_np`, as they do on a float model.

    The pass mutates ``model`` in place and returns it.
    """
    if dtype != "int8":
        raise QuantizationError(f"unsupported quantization dtype {dtype!r}; only 'int8' is implemented")
    from repro.lora.adapter import LoRALinear  # local import: repro.lora imports repro.nn

    for module in _iter_modules(model):
        if isinstance(module, LoRALinear) and not module.merged:
            raise QuantizationError(
                "quantize_model must run after LoRA merge: found an unmerged "
                "LoRALinear (its low-rank delta would be dropped). Call "
                "repro.lora.merge_lora(model) first."
            )

    target_names = set(DEFAULT_TARGETS if targets is None else targets)
    if quantize_head:
        target_names.add("head")

    replaced = 0
    for module in list(_iter_modules(model)):
        for key, value in list(vars(module).items()):
            if isinstance(value, LoRALinear) and key in target_names:
                setattr(module, key, QuantizedLinear.from_linear(value.base))
                replaced += 1
            elif isinstance(value, Linear) and key in target_names:
                setattr(module, key, QuantizedLinear.from_linear(value))
                replaced += 1
            elif isinstance(value, Embedding) and quantize_embeddings:
                setattr(module, key, QuantizedEmbedding.from_embedding(value))
                replaced += 1
    if replaced == 0:
        raise QuantizationError(
            f"quantize_model found no eligible layers (targets={sorted(target_names)})"
        )

    from repro.nn.transformer import MistralTiny  # local import: avoid cycle at module load

    for module in _iter_modules(model):
        if isinstance(module, MistralTiny):
            module._inference_kernel = infer_logits_np  # marker only; see MistralTiny
    model.bump_weight_version()
    return model


def is_quantized(model: Module) -> bool:
    """Whether any layer in the tree is an int8 quantized layer."""
    return any(
        isinstance(m, (QuantizedLinear, QuantizedEmbedding)) for m in _iter_modules(model)
    )


def weight_bytes(model: Module) -> int:
    """Resident bytes of all weights: float parameters plus int8 buffers.

    This is the number the ~4x quantization claim is about — KV caches
    and activations are accounted separately.
    """
    return sum(p.data.nbytes for _, p in model.named_parameters()) + sum(
        b.data.nbytes for _, b in model.named_buffers()
    )


# ----------------------------------------------------------------------
# Fused raw-numpy inference kernel
# ----------------------------------------------------------------------
#
# One Python frame per layer instead of one autograd Tensor per op.  Each
# layer runs the raw forward its training node runs (linear_np,
# rms_norm_np, fused_attention, swiglu_np), so a float model evaluated
# through this kernel equals the autograd forward bit for bit.


def layer_np(layer, x: np.ndarray) -> np.ndarray:
    """Raw forward for Linear / QuantizedLinear / LoRALinear."""
    if isinstance(layer, QuantizedLinear):
        return layer.matmul_np(x)
    if isinstance(layer, Linear):
        # The graph's own matmul, not one flattened GEMM: each row's
        # result then does not depend on how many rows share the batch.
        return linear_np(x, layer.weight.data, _data(layer.bias))[0]
    base = getattr(layer, "base", None)
    if base is None:
        raise QuantizationError(
            f"fused inference path cannot evaluate layer type {type(layer).__name__}"
        )
    if layer.merged:
        return layer_np(base, x)
    lora = (layer.lora_a.data, layer.lora_b.data, layer.scaling)
    return linear_np(x, base.weight.data, _data(base.bias), lora)[0]


def _data(param):
    return None if param is None else param.data


def _rmsnorm_np(norm: RMSNorm, x: np.ndarray) -> np.ndarray:
    return rms_norm_np(x, norm.weight.data, norm.eps)[0]


def _swiglu_np(ffn: SwiGLU, x: np.ndarray) -> np.ndarray:
    gate, _ = swiglu_np(layer_np(ffn.w1, x), layer_np(ffn.w3, x))
    return layer_np(ffn.w2, gate)


def mask_for(attn: MultiHeadAttention, seq, kv_len, attn_mask):
    """The additive mask a forward step needs, or ``None`` on the decode
    fast path (single newest query, every cached key inside the window)
    where building an all-zero mask would be pure waste.  The ``seq``
    queries are the newest positions of the ``kv_len`` keys.
    """
    if attn_mask is not None:
        return attn_mask
    window = attn.sliding_window
    if seq == 1 and (window is None or kv_len <= window):
        return None
    return rect_attention_mask(seq, kv_len, window, q_offset=kv_len - seq)


def _attention_np(
    attn: MultiHeadAttention, x: np.ndarray, cache, tables, attn_mask, readout=None
):
    # K/V cover every position (the cache needs them all); with a readout
    # only the read rows get a query, at their own RoPE positions.
    xq, q_tables = x, None
    if readout is not None:
        xq = _rows(x, readout)
        q_tables = tuple(_table_rows(t, readout) for t in tables)
    q, k, v = attn.heads_np(
        layer_np(attn.wq, xq), layer_np(attn.wk, x), layer_np(attn.wv, x), tables, q_tables
    )
    if cache is not None:
        k, v = cache.append(k, v)
    mask = mask_for(attn, x.shape[1], k.shape[2], attn_mask)
    if readout is not None:
        mask = mask[readout][:, None, None, :]  # (T, S) rows -> (B, 1, 1, S)
    out, _ = fused_attention(q, k, v, attn.n_kv_heads, mask)
    return layer_np(attn.wo, out)


def _rows(a: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """Position ``readout[b]`` of each row ``b`` of ``(B, T, ...)``, as ``(B, 1, ...)``."""
    return a[np.arange(a.shape[0]), readout][:, None]


def _table_rows(table: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """Row ``b``'s RoPE table entry at ``readout[b]``, as ``(B, 1, 1, hd)``.

    ``table`` is ``(T, hd)`` or ``(B, 1, T, hd)`` (:meth:`RotaryEmbedding.tables`).
    """
    batch = readout.shape[0]
    table = np.broadcast_to(table, (batch, 1, *table.shape[-2:]))
    return table[np.arange(batch), :, readout][:, :, None]


def _block_np(block, x: np.ndarray, cache, tables, attn_mask, readout=None) -> np.ndarray:
    h = _attention_np(
        block.attn, _rmsnorm_np(block.attn_norm, x), cache, tables, attn_mask, readout
    )
    x = x + h if readout is None else _rows(x, readout) + h
    return x + _swiglu_np(block.ffn, _rmsnorm_np(block.ffn_norm, x))


def infer_logits_np(
    model, token_ids: np.ndarray, cache=None, positions=None, attn_mask=None, readout=None
):
    """Fused no-graph forward of a float or int8 :class:`MistralTiny`.

    :meth:`MistralTiny.forward` dispatches here for every no-grad
    inference forward, so ``generate``, ``generate_batch``, the
    :class:`ContinuousScheduler` and padded scoring all share this path.
    ``attn_mask`` is a raw additive numpy mask.  Returns raw
    ``(B, T, vocab)`` logits.

    ``readout`` is a ``(B,)`` index array naming the one position per
    row whose logits the caller reads.  Every block still computes K/V
    for (and appends to ``cache``) every position, so the cache is the
    same as a full forward's; the last block's query, attention output,
    MLP, final norm and head then run on the read rows only, and the
    result is ``(B, 1, vocab)``.  Those logits agree with the full
    forward's rows to about 1e-8 (BLAS rounding depends on the row
    count).  A one-position forward (``T == 1``) ignores the readout,
    and a readout with an explicit ``attn_mask`` raises
    :class:`~repro.errors.ConfigError`.
    """
    if readout is not None:
        if attn_mask is not None:
            raise ConfigError("readout with an explicit attn_mask is not supported")
        readout = np.asarray(readout, dtype=np.int64).reshape(-1)
        if readout.shape[0] != token_ids.shape[0]:
            raise ShapeError(
                f"readout needs one index per row ({token_ids.shape[0]}), got {readout.shape[0]}"
            )
        if token_ids.shape[1] == 1:
            readout = None
    if positions is None:
        start = cache.next_position if cache is not None else 0
        positions = np.arange(start, start + token_ids.shape[1])
    # Every block's RoPE is the same table: gather (and bounds-check) once.
    tables = model.blocks[0].attn.rope.tables(positions)
    embed = model.tok_embed
    if isinstance(embed, QuantizedEmbedding):
        x = embed.lookup_np(token_ids)
    else:
        x = embed.weight.data[token_ids]
    last = len(model.blocks) - 1
    for i, block in enumerate(model.blocks):
        layer_cache = cache[i] if cache is not None else None
        x = _block_np(block, x, layer_cache, tables, attn_mask, readout if i == last else None)
    x = _rmsnorm_np(model.final_norm, x)
    if model.lm_head is not None:
        return layer_np(model.lm_head, x)
    if isinstance(embed, QuantizedEmbedding):
        return embed.project_np(x)
    return linear_np(x, embed.weight.data)[0]
