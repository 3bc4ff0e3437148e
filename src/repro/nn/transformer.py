"""MistralTiny: a laptop-scale causal LM with Mistral's architecture.

RMSNorm pre-normalization, rotary embeddings, grouped-query sliding-window
attention, SwiGLU feed-forward, and an optional tied LM head — the same
family as the 7B base model the paper fine-tunes, shrunk so that full
fine-tuning, LoRA adaptation and per-sample gradient tracing (TracSeq)
run in seconds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.tensor import Tensor, cross_entropy, is_grad_enabled
from repro.tensor.random import default_rng
from repro.nn.attention import MultiHeadAttention
from repro.nn.cache import KVCache
from repro.nn.layers import Embedding, Linear, RMSNorm
from repro.nn.mlp import SwiGLU
from repro.nn.module import Module, ModuleList
from repro.nn.quant import infer_logits_np


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters for :class:`MistralTiny`.

    Defaults are the "test-size" model; benchmark presets live in
    :mod:`repro.config`.
    """

    vocab_size: int = 256
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    n_kv_heads: int = 2
    d_ff: int = 128
    max_seq_len: int = 128
    sliding_window: int | None = 64
    rope_theta: float = 10000.0
    tie_embeddings: bool = True

    def __post_init__(self):
        if self.vocab_size <= 0:
            raise ConfigError("vocab_size must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_heads={self.n_heads} must be divisible by n_kv_heads={self.n_kv_heads}"
            )
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head dim must be even for RoPE")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Inverse of :meth:`to_dict`; drops an older config's ``"dropout": 0.0``."""
        data = dict(data)
        dropout = data.pop("dropout", 0.0)
        if dropout != 0.0:  # a model trained with dropout, which nothing here runs
            raise ConfigError(f"model_config key 'dropout' is {dropout!r}; only 0.0 loads")
        return cls(**data)


class TransformerBlock(Module):
    """Pre-norm transformer block: ``x + attn(norm(x))``, ``x + ffn(norm(x))``."""

    def __init__(self, config: ModelConfig, rng=None):
        super().__init__()
        rng = default_rng(rng)
        self.attn_norm = RMSNorm(config.d_model)
        self.attn = MultiHeadAttention(
            d_model=config.d_model,
            n_heads=config.n_heads,
            n_kv_heads=config.n_kv_heads,
            max_seq_len=config.max_seq_len,
            sliding_window=config.sliding_window,
            rope_theta=config.rope_theta,
            rng=rng,
        )
        self.ffn_norm = RMSNorm(config.d_model)
        self.ffn = SwiGLU(config.d_model, config.d_ff, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.attn_norm(x))
        x = x + self.ffn(self.ffn_norm(x))
        return x


class MistralTiny(Module):
    """Causal language model over integer token ids.

    ``forward`` maps ``(batch, seq)`` int arrays to ``(batch, seq, vocab)``
    logits; :meth:`loss` adds next-token cross entropy with the usual
    shift-by-one and ``-100`` masking, which the instruction-tuning code
    uses to supervise only the answer span.
    """

    def __init__(self, config: ModelConfig, rng=None):
        super().__init__()
        rng = default_rng(rng)
        self.config = config
        self.tok_embed = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.blocks = ModuleList(TransformerBlock(config, rng=rng) for _ in range(config.n_layers))
        self.final_norm = RMSNorm(config.d_model)
        if config.tie_embeddings:
            self.lm_head = None
        else:
            self.lm_head = Linear(config.d_model, config.vocab_size, bias=False, rng=rng)
        # Int8 marker read by the perfbench traced run (perfbench/spans.py):
        # quantize_model() sets it, float models hold None.  forward()
        # does not read it; remove it together with that reader.
        self._inference_kernel = None

    def forward(
        self, token_ids: np.ndarray, cache=None, positions=None, attn_mask=None, readout=None
    ) -> Tensor:
        """Logits for ``token_ids``.

        Two paths, one rule.  With gradients off the forward runs the
        fused raw-numpy kernel (:func:`~repro.nn.quant.infer_logits_np`)
        — float and int8 models alike; with gradients on it runs the
        autograd graph, which is the training path.  Incremental
        forwards (``cache``, ``positions``, ``attn_mask`` or ``readout``
        given) are inference-only: with gradients on they raise
        :class:`~repro.errors.ConfigError`.

        With ``cache`` (a :class:`~repro.nn.cache.KVCache`), ``token_ids``
        holds only the *new* tokens: the cached prefix supplies attention
        keys/values and absolute positions advance automatically.
        ``positions`` overrides the RoPE positions (``(T,)`` shared or
        ``(B, T)`` per-row) and ``attn_mask`` replaces the internal
        causal/sliding mask — both are used by the ragged decode loop in
        :mod:`repro.nn.continuous`.  ``readout`` (``(B,)`` indices) names
        the one position per row whose logits the caller reads; the
        result is then ``(B, 1, vocab)`` (see
        :func:`~repro.nn.quant.infer_logits_np`).
        """
        token_ids = np.asarray(token_ids)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        if token_ids.ndim != 2:
            raise ShapeError(f"token_ids must be (batch, seq), got shape {token_ids.shape}")
        if positions is not None:
            positions = np.asarray(positions)
            max_pos = int(positions.max(initial=0))
            if max_pos >= self.config.max_seq_len:
                raise ShapeError(
                    f"position {max_pos} exceeds max_seq_len {self.config.max_seq_len} "
                    "(RoPE table would overflow)"
                )
        else:
            start = cache.next_position if cache is not None else 0
            if start + token_ids.shape[1] > self.config.max_seq_len:
                raise ShapeError(
                    f"sequence length {start + token_ids.shape[1]} exceeds max_seq_len "
                    f"{self.config.max_seq_len}"
                )
        if not is_grad_enabled():
            return Tensor(infer_logits_np(self, token_ids, cache, positions, attn_mask, readout))
        if any(a is not None for a in (cache, positions, attn_mask, readout)):
            raise ConfigError(
                "forward() with cache/positions/attn_mask/readout is inference-only: "
                "run it under no_grad()"
            )
        x = self.hidden_states(token_ids)
        if self.lm_head is not None:
            return self.lm_head(x)
        return self.tok_embed.project(x)

    def hidden_states(self, token_ids: np.ndarray) -> Tensor:
        """Final-norm hidden states ``(batch, seq, d_model)`` (no LM head).

        Always the autograd graph.  Used by
        :class:`~repro.nn.classifier.SequenceClassifier` to attach a task
        head to the same backbone.
        """
        token_ids = np.atleast_2d(np.asarray(token_ids))
        if token_ids.shape[1] > self.config.max_seq_len:
            raise ShapeError(
                f"sequence length {token_ids.shape[1]} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        x = self.tok_embed(token_ids)
        for block in self.blocks:
            x = block(x)
        return self.final_norm(x)

    def make_cache(self) -> KVCache:
        """A fresh KV cache with one layer cache per transformer block."""
        return KVCache(self.config.n_layers)

    def loss(self, token_ids: np.ndarray, labels: np.ndarray | None = None) -> Tensor:
        """Next-token cross entropy.

        ``labels`` defaults to ``token_ids``; positions whose *label* is
        ``-100`` are ignored.  Internally logits at position ``t`` predict
        the label at position ``t + 1``.
        """
        token_ids = np.atleast_2d(np.asarray(token_ids))
        if labels is None:
            labels = token_ids
        labels = np.atleast_2d(np.asarray(labels))
        if labels.shape != token_ids.shape:
            raise ShapeError(
                f"labels shape {labels.shape} must match token_ids shape {token_ids.shape}"
            )
        logits = self.forward(token_ids)
        shifted_logits = logits[:, :-1, :]
        shifted_labels = labels[:, 1:]
        return cross_entropy(shifted_logits, shifted_labels)
