"""P1: substrate throughput — forward, backward, generation, influence.

Not a paper table; documents the cost envelope of the numpy substrate so
users can budget experiments (see DESIGN.md section 5).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import bench_config
from repro.nn import GenerationConfig, MistralTiny, generate
from repro.optim import AdamW
from repro.influence import per_sample_gradient

BATCH, SEQ = 8, 64


@pytest.fixture(scope="module")
def model():
    return MistralTiny(bench_config().model, rng=0)


@pytest.fixture(scope="module")
def token_ids(model):
    rng = np.random.default_rng(0)
    return rng.integers(5, model.config.vocab_size, size=(BATCH, SEQ))


def test_forward_throughput(benchmark, model, token_ids):
    from repro.tensor import no_grad

    def run():
        with no_grad():
            return model(token_ids)

    benchmark(run)
    benchmark.extra_info["tokens_per_call"] = BATCH * SEQ


def test_forward_backward_throughput(benchmark, model, token_ids):
    def run():
        model.zero_grad()
        model.loss(token_ids).backward()

    benchmark(run)
    benchmark.extra_info["tokens_per_call"] = BATCH * SEQ


def test_optimizer_step_cost(benchmark, model, token_ids):
    optimizer = AdamW(model.parameters(), lr=1e-3)
    model.zero_grad()
    model.loss(token_ids).backward()
    benchmark(optimizer.step)


def test_generation_latency(benchmark, model):
    prompt = np.arange(1, 17)
    config = GenerationConfig(max_new_tokens=8)
    benchmark(lambda: generate(model, prompt, config))
    benchmark.extra_info["new_tokens_per_call"] = 8


def test_per_sample_gradient_cost(benchmark, model):
    example = (list(range(1, 33)), list(range(1, 33)))
    benchmark(lambda: per_sample_gradient(model, example))


def test_generation_latency_uncached(benchmark, model):
    """Baseline for the KV-cache speedup: full re-forward per token."""
    prompt = np.arange(1, 17)
    config = GenerationConfig(max_new_tokens=8, use_cache=False)
    benchmark(lambda: generate(model, prompt, config))
    benchmark.extra_info["new_tokens_per_call"] = 8


def test_kv_cache_append_cost(benchmark, model):
    """Cost of a single-token append to one layer's KV cache.

    The cache keeps every key, so a fresh one starts every
    ``max_seq_len`` appends: the buffer never grows past what a forward
    can fill.
    """
    rng = np.random.default_rng(0)
    head_dim = model.config.d_model // model.config.n_heads
    k = rng.normal(size=(1, model.config.n_kv_heads, 1, head_dim)).astype(np.float32)
    cache = model.make_cache()

    def run():
        nonlocal cache
        if len(cache[0]) == model.config.max_seq_len:
            cache = model.make_cache()
        cache[0].append(k, k)

    benchmark(run)
