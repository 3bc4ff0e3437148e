"""Analytic parameter and FLOP counts for MistralTiny configurations.

Used by the throughput benchmark to report model-independent numbers
(tokens/second at a given compute budget) and by users sizing configs.
Counts follow the usual transformer accounting: a matmul of shapes
``(m, k) @ (k, n)`` costs ``2·m·k·n`` FLOPs (``m·k·n`` MACs).

Two refinements matter for the serving stack:

* **Decode fast path** — :func:`estimate_decode_flops` prices one
  ``q_len == 1`` step against a KV cache of a given length: the
  attention score/value matmuls touch only the *retained* keys
  (``min(kv_len, window)``), which is what the continuous scheduler's
  steady-state cost actually is.
* **Quantized matmuls** — with ``quantized=True`` the weight matmuls
  (q/k/v/o projections, SwiGLU, LM head) run against int8 weights; the
  same multiply-accumulates happen, but they are reported separately in
  ``int8_macs`` so memory-bandwidth-bound decode can be reasoned about
  (int8 weights move 4x fewer bytes per MAC).  Activation-by-activation
  matmuls (QK^T, AV) stay float either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.transformer import ModelConfig


@dataclass(frozen=True)
class FlopsEstimate:
    """Parameter and per-forward FLOP estimates.

    ``int8_macs`` is the subset of the work (in multiply-accumulates,
    i.e. ``flops / 2``) executed against int8 weights; zero for a float
    model.  ``flops_per_token`` always counts total arithmetic.
    """

    parameters: int
    flops_per_token: int
    attention_flops: int
    ffn_flops: int
    head_flops: int
    int8_macs: int = 0


def count_parameters(config: ModelConfig) -> int:
    """Exact parameter count for a :class:`MistralTiny` of this config."""
    d, v = config.d_model, config.vocab_size
    head_dim = d // config.n_heads
    kv_dim = config.n_kv_heads * head_dim
    per_block = (
        d * d          # wq
        + d * kv_dim   # wk
        + d * kv_dim   # wv
        + d * d        # wo
        + 3 * d * config.d_ff  # SwiGLU w1, w2, w3
        + 2 * d        # two RMSNorm scales
    )
    total = v * d + config.n_layers * per_block + d  # embeddings + blocks + final norm
    if not config.tie_embeddings:
        total += v * d
    return total


def _weight_matmul_flops(config: ModelConfig) -> tuple[int, int, int]:
    """Per-token FLOPs of the weight matmuls: (projections, ffn, head)."""
    d, v = config.d_model, config.vocab_size
    head_dim = d // config.n_heads
    kv_dim = config.n_kv_heads * head_dim
    proj = 2 * d * (d + 2 * kv_dim + d)          # q, k, v, o projections
    ffn = 2 * 3 * d * config.d_ff
    head = 2 * d * v
    return proj, ffn, head


def estimate_flops(
    config: ModelConfig, seq_len: int | None = None, quantized: bool = False
) -> FlopsEstimate:
    """Per-token forward FLOPs at sequence length ``seq_len``.

    Attention score/value matmuls scale with the *attended* length,
    which the sliding window caps at ``min(seq_len, window)``.  With
    ``quantized=True`` the weight matmuls are additionally reported in
    ``int8_macs`` (total FLOPs are unchanged — quantization changes
    bytes moved, not arithmetic done).
    """
    seq_len = seq_len or config.max_seq_len
    d = config.d_model
    attended = min(seq_len, config.sliding_window or seq_len)

    proj, per_layer_ffn, head = _weight_matmul_flops(config)
    scores = 2 * 2 * d * attended                # QK^T and AV per token
    attention = config.n_layers * (proj + scores)
    ffn = config.n_layers * per_layer_ffn
    int8_macs = (config.n_layers * (proj + per_layer_ffn) + head) // 2 if quantized else 0

    return FlopsEstimate(
        parameters=count_parameters(config),
        flops_per_token=attention + ffn + head,
        attention_flops=attention,
        ffn_flops=ffn,
        head_flops=head,
        int8_macs=int8_macs,
    )


def estimate_decode_flops(
    config: ModelConfig, kv_len: int, quantized: bool = False
) -> FlopsEstimate:
    """FLOPs for one decode fast-path step (``q_len == 1``) at ``kv_len``.

    The single query attends over the retained cache only — the rolling
    window bounds it at ``min(kv_len, window)`` keys — and no mask is
    built, so the cost is exactly the weight matmuls plus one QK^T/AV
    pair over the retained span.  This is the steady-state per-token
    cost of ``generate``/``generate_batch``/``ContinuousScheduler``.
    """
    if kv_len < 0:
        raise ValueError(f"kv_len must be non-negative, got {kv_len}")
    d = config.d_model
    attended = min(kv_len + 1, config.sliding_window or (kv_len + 1))

    proj, per_layer_ffn, head = _weight_matmul_flops(config)
    scores = 2 * 2 * d * attended
    attention = config.n_layers * (proj + scores)
    ffn = config.n_layers * per_layer_ffn
    int8_macs = (config.n_layers * (proj + per_layer_ffn) + head) // 2 if quantized else 0

    return FlopsEstimate(
        parameters=count_parameters(config),
        flops_per_token=attention + ffn + head,
        attention_flops=attention,
        ffn_flops=ffn,
        head_flops=head,
        int8_macs=int8_macs,
    )
