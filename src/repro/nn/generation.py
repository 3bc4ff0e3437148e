"""Decoding: greedy / temperature / top-k sampling, single and batched.

Generation always runs under :func:`~repro.tensor.no_grad` and shares
one decode loop, :class:`~repro.nn.continuous.ContinuousScheduler`:

* :func:`generate_batch` submits every prompt to one scheduler sized to
  the batch and drains it — one padded prefill, then one-token-per-step
  batched decode with per-row RoPE positions, per-row stop tokens and
  early row retirement.
* :func:`generate` with ``use_cache=True`` (the default) is a one-row
  :func:`generate_batch`.  With ``use_cache=False`` it re-forwards the
  whole sequence each step: the independent reference the batched,
  cached and continuous paths are tested against.

Seeded sampling matches row-for-row because every row draws from its
own ``default_rng(config.seed)`` stream, just like a sequential call.
A :class:`~repro.nn.cache.PrefixCache` lets a prompt identical to a
cached one copy the stored KV snapshot and logits instead of running
its prefill.  Counters and the decode-step histogram are reported through
:mod:`repro.obs` (``generation.*`` series; see ``docs/generation.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.tensor import no_grad
from repro.tensor.random import default_rng
from repro.nn.cache import PrefixCache
from repro.nn.quant import infer_logits_np
from repro.nn.transformer import MistralTiny


@dataclass(frozen=True)
class GenerationConfig:
    """Decoding parameters.

    ``temperature == 0`` means greedy decoding; ``top_k`` (when set)
    restricts sampling to the k most likely tokens.
    """

    max_new_tokens: int = 16
    temperature: float = 0.0
    top_k: int | None = None
    stop_tokens: tuple[int, ...] = ()
    seed: int = 0
    use_cache: bool = True

    def __post_init__(self):
        if self.max_new_tokens <= 0:
            raise ConfigError("max_new_tokens must be positive")
        if self.temperature < 0:
            raise ConfigError("temperature must be non-negative")
        if self.top_k is not None and self.top_k <= 0:
            raise ConfigError("top_k must be positive when set")


def _check_budget(model: MistralTiny, config: GenerationConfig) -> int:
    """Validate that prompt + generation fit the model's context window.

    Returns the prompt-length budget.  Without this check,
    ``ids[-(max_seq_len - max_new_tokens):]`` silently keeps the wrong
    slice when ``max_new_tokens >= max_seq_len`` (``ids[-0:]`` is the
    *whole* list) and decode positions overflow the RoPE table.
    """
    budget = model.config.max_seq_len - config.max_new_tokens
    if budget <= 0:
        raise ConfigError(
            f"max_new_tokens={config.max_new_tokens} must be smaller than the model's "
            f"max_seq_len={model.config.max_seq_len}: no context budget would remain for "
            "the prompt and decode positions would overflow the RoPE table"
        )
    return budget


def _sample_token(logits: np.ndarray, config: GenerationConfig, rng) -> int:
    if config.temperature == 0.0:
        return int(logits.argmax())
    scaled = logits / config.temperature
    if config.top_k is not None and config.top_k < scaled.size:
        cutoff = np.partition(scaled, -config.top_k)[-config.top_k]
        scaled = np.where(scaled >= cutoff, scaled, -np.inf)
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(rng.choice(probs.size, p=probs))


def generate(
    model: MistralTiny,
    prompt_ids: np.ndarray,
    config: GenerationConfig | None = None,
    prefix_cache: PrefixCache | None = None,
) -> list[int]:
    """Generate a continuation for a single prompt.

    Returns only the newly generated token ids (prompt excluded).  The
    prompt is truncated on the left if it would overflow the model's
    context window; ``max_new_tokens`` must leave a positive prompt
    budget (:class:`~repro.errors.ConfigError` otherwise).
    """
    config = config or GenerationConfig()
    if config.use_cache:
        return generate_batch(model, [prompt_ids], config, prefix_cache=prefix_cache)[0]
    budget = _check_budget(model, config)
    rng = default_rng(config.seed)
    # Left-truncate to the prompt budget up front, exactly as the cached
    # path does, so both condition on the identical context window.
    ids = list(np.asarray(prompt_ids, dtype=np.int64).reshape(-1))[-budget:]
    generated: list[int] = []
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for _ in range(config.max_new_tokens):
                logits = model.forward(np.asarray(ids, dtype=np.int64)[None, :])
                next_id = _sample_token(logits.data[0, -1], config, rng)
                ids.append(next_id)
                generated.append(next_id)
                if next_id in config.stop_tokens:
                    break
    finally:
        if was_training:
            model.train()
    return generated


def generate_batch(
    model: MistralTiny,
    prompts,
    config: GenerationConfig | None = None,
    prefix_cache: PrefixCache | None = None,
    obs=None,
) -> list[list[int]]:
    """Generate continuations for many prompts in one batched decode.

    Returns one list of newly generated token ids per prompt, in input
    order, equal to per-prompt ``generate(..., use_cache=False)``.  All
    prompts are admitted to one :class:`ContinuousScheduler` at once and
    it is drained; rows retire as soon as they emit a stop token (or hit
    ``max_new_tokens``) and are compacted out of the running batch.
    """
    from repro.nn.continuous import AdmissionPolicy, ContinuousScheduler  # it imports this module

    prompts = list(prompts)
    rows = max(len(prompts), 1)
    scheduler = ContinuousScheduler(
        model,
        config,
        policy=AdmissionPolicy(max_live_rows=rows, max_prefills_per_step=rows),
        prefix_cache=prefix_cache,
        obs=obs,
    )
    streams = [scheduler.submit(p) for p in prompts]
    scheduler.drain()
    return [list(stream.tokens) for stream in streams]


def next_token_logits(model: MistralTiny, prompt_ids: np.ndarray) -> np.ndarray:
    """Logits over the vocabulary for the token following ``prompt_ids``.

    Used by the evaluation harness to score discrete answers (e.g. the
    relative likelihood of "yes" vs "no"), which feeds the KS metric.
    Runs the fused kernel directly (the eval-mode forward), leaving the
    model's train/eval mode alone.
    """
    ids = np.asarray(prompt_ids, dtype=np.int64).reshape(-1)
    ids = ids[-model.config.max_seq_len:]
    return infer_logits_np(model, ids[None, :])[0, -1].copy()
