"""Batched decoding: parity with the uncached reference, caches, wiring.

``generate`` and ``generate_batch`` share one decode loop, so they are
not checked against each other: both must produce, row for row, the
tokens of the uncached re-forward loop ``generate(..., use_cache=False)``
— greedy and seeded-sampling alike — and the ring buffer / prefix cache
must never change model outputs, only their cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn.attention import rect_attention_mask
from repro.nn.cache import KVCache, LayerKVCache, PrefixCache
from repro.nn.generation import GenerationConfig, generate, generate_batch


from conftest import ragged_prompts as _prompts
from conftest import uncached_reference


def _assert_rows_equal(batch, expected):
    assert len(batch) == len(expected)
    for got, want in zip(batch, expected):
        assert list(got) == list(want)


def _assert_matches_reference(model, prompts, config, prefix_cache=None):
    """``generate`` per prompt and ``generate_batch`` both equal the reference."""
    expected = uncached_reference(model, prompts, config)
    _assert_rows_equal(
        [generate(model, p, config, prefix_cache=prefix_cache) for p in prompts], expected
    )
    batch = generate_batch(model, prompts, config, prefix_cache=prefix_cache)
    _assert_rows_equal(batch, expected)
    return batch


class TestBatchedParity:
    def test_greedy_ragged(self, tiny_model, tiny_config):
        prompts = _prompts(tiny_config.vocab_size)
        _assert_matches_reference(tiny_model, prompts, GenerationConfig(max_new_tokens=6))

    def test_seeded_sampling(self, tiny_model, tiny_config):
        prompts = _prompts(tiny_config.vocab_size, seed=1)
        config = GenerationConfig(max_new_tokens=6, temperature=1.0, seed=7)
        _assert_matches_reference(tiny_model, prompts, config)

    def test_stop_tokens_retire_rows_early(self, tiny_model, tiny_config):
        prompts = _prompts(tiny_config.vocab_size, seed=2)
        # Greedy output tokens double as stop tokens so rows retire at
        # different steps; parity must survive row compaction.
        probe = generate_batch(tiny_model, prompts, GenerationConfig(max_new_tokens=6))
        stops = tuple({row[2] for row in probe if len(row) > 2})
        config = GenerationConfig(max_new_tokens=6, stop_tokens=stops)
        batch = _assert_matches_reference(tiny_model, prompts, config)
        assert len({len(row) for row in batch}) > 1  # genuinely ragged exit

    def test_window_binding_long_prompts(self, tiny_model, tiny_config):
        # Prompts long enough that the sliding window masks out history.
        lengths = (20, 25, 18)
        prompts = _prompts(tiny_config.vocab_size, lengths, seed=3)
        _assert_matches_reference(tiny_model, prompts, GenerationConfig(max_new_tokens=6))

    def test_prefill_matches_uncached_forward_past_window(self, tiny_model, tiny_config):
        # Prompts longer than the sliding window: prefill must compute the
        # same logits as a full no-cache forward (trimming keys mid-prompt
        # would corrupt early positions and, through layer 2, the output).
        from repro.nn.generation import next_token_logits

        prompt = _prompts(tiny_config.vocab_size, (25,), seed=8)[0]
        greedy = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=1))
        assert greedy[0] == int(next_token_logits(tiny_model, prompt).argmax())

    def test_single_row_batch(self, tiny_model, tiny_config):
        prompt = _prompts(tiny_config.vocab_size, (8,))[0]
        _assert_matches_reference(tiny_model, [prompt], GenerationConfig(max_new_tokens=5))

    def test_empty_inputs(self, tiny_model):
        assert generate_batch(tiny_model, []) == []
        with pytest.raises(ConfigError):
            generate_batch(tiny_model, [np.asarray([], dtype=np.int64)])


class TestBudgetValidation:
    def test_max_new_tokens_must_leave_prompt_room(self, tiny_model, tiny_config):
        prompt = _prompts(tiny_config.vocab_size, (4,))[0]
        bad = GenerationConfig(max_new_tokens=tiny_config.max_seq_len)
        with pytest.raises(ConfigError, match="max_new_tokens"):
            generate(tiny_model, prompt, bad)
        with pytest.raises(ConfigError, match="max_new_tokens"):
            generate_batch(tiny_model, [prompt], bad)

    def test_long_prompt_truncates_to_budget(self, tiny_model, tiny_config):
        rng = np.random.default_rng(4)
        long = rng.integers(5, tiny_config.vocab_size, size=100).astype(np.int64)
        config = GenerationConfig(max_new_tokens=4)
        kept = long[-(tiny_config.max_seq_len - 4):]
        expected = uncached_reference(tiny_model, [kept], config)
        assert uncached_reference(tiny_model, [long], config) == expected
        _assert_rows_equal([generate(tiny_model, long, config)], expected)
        _assert_rows_equal(generate_batch(tiny_model, [long], config), expected)


class ConcatLayerCache:
    """Golden reference: the old concatenate-per-step cache semantics."""

    def __init__(self):
        self._k = self._v = None

    def append(self, k, v):
        if self._k is None:
            self._k, self._v = k.copy(), v.copy()
        else:
            self._k = np.concatenate([self._k, k], axis=2)
            self._v = np.concatenate([self._v, v], axis=2)
        return self._k, self._v


class TestRingBuffer:
    @pytest.mark.parametrize("chunks", [[1] * 40, [5, 1, 1, 7, 1, 30, 1, 1]])
    def test_matches_concat_reference(self, chunks):
        rng = np.random.default_rng(0)
        ring = LayerKVCache()
        concat = ConcatLayerCache()
        for t in chunks:
            k = rng.standard_normal((1, 2, t, 4)).astype(np.float32)
            v = rng.standard_normal((1, 2, t, 4)).astype(np.float32)
            rk, rv = ring.append(k, v)
            ck, cv = concat.append(k, v)
            np.testing.assert_array_equal(rk, ck)
            np.testing.assert_array_equal(rv, cv)

    def test_select_rows_reorders_and_drops(self):
        rng = np.random.default_rng(3)
        cache = LayerKVCache()
        k = rng.standard_normal((4, 2, 5, 4)).astype(np.float32)
        cache.append(k, k)
        cache.select_rows([3, 1])
        got, _ = cache.views()
        np.testing.assert_array_equal(got, k[[3, 1]])


class TestPrefixCache:
    def test_hit_parity(self, tiny_model, tiny_config):
        prompts = _prompts(tiny_config.vocab_size, (10, 10, 6), seed=5)
        prompts[1] = prompts[0].copy()  # exact repeat => full prefix hit
        config = GenerationConfig(max_new_tokens=5)
        baseline = uncached_reference(tiny_model, prompts, config)

        cache = PrefixCache(capacity=8)
        first = generate_batch(tiny_model, prompts, config, prefix_cache=cache)
        again = generate_batch(tiny_model, prompts, config, prefix_cache=cache)
        _assert_rows_equal(first, baseline)
        _assert_rows_equal(again, baseline)
        assert cache.stats.hits > 0
        assert cache.stats.tokens_saved > 0

    def test_sequential_generate_uses_prefix_cache(self, tiny_model, tiny_config):
        prompt = _prompts(tiny_config.vocab_size, (9,), seed=6)[0]
        config = GenerationConfig(max_new_tokens=5)
        [baseline] = uncached_reference(tiny_model, [prompt], config)
        cache = PrefixCache(capacity=4)
        assert list(generate(tiny_model, prompt, config, prefix_cache=cache)) == list(baseline)
        assert list(generate(tiny_model, prompt, config, prefix_cache=cache)) == list(baseline)
        assert cache.stats.hits == 1

    def test_only_identical_prompts_hit(self, tiny_model, tiny_config):
        # A prompt that extends a stored one is a different key: it misses
        # and is prefilled in full.
        base = _prompts(tiny_config.vocab_size, (10,), seed=7)[0]
        extended = np.concatenate([base, base[:4]])
        config = GenerationConfig(max_new_tokens=5)
        cache = PrefixCache(capacity=4)
        generate(tiny_model, base, config, prefix_cache=cache)
        assert cache.lookup(base[:-1]) is None
        with_cache = generate(tiny_model, extended, config, prefix_cache=cache)
        assert cache.stats.hits == 0
        assert len(cache) == 2
        assert [list(with_cache)] == uncached_reference(tiny_model, [extended], config)
        assert cache.lookup(base).key == tuple(base.tolist())

    def test_full_cache_evicts_least_recently_used(self, tiny_model, tiny_config):
        config = GenerationConfig(max_new_tokens=2)
        cache = PrefixCache(capacity=2)
        prompts = [_prompts(tiny_config.vocab_size, (8,), seed=s)[0] for s in range(3)]
        generate(tiny_model, prompts[0], config, prefix_cache=cache)
        generate(tiny_model, prompts[1], config, prefix_cache=cache)
        # A hit on prompt 0 makes prompt 1 the least recently used...
        generate(tiny_model, prompts[0], config, prefix_cache=cache)
        assert cache.stats.hits == 1
        # ...so storing prompt 2 evicts prompt 1, not prompt 0.
        generate(tiny_model, prompts[2], config, prefix_cache=cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup(prompts[1]) is None
        assert cache.lookup(prompts[0]) is not None
        assert cache.lookup(prompts[2]) is not None

    def test_max_bytes_bounds_eviction(self, tiny_model, tiny_config):
        config = GenerationConfig(max_new_tokens=2)
        probe = PrefixCache(capacity=16)
        prompt = _prompts(tiny_config.vocab_size, (8,), seed=0)[0]
        generate(tiny_model, prompt, config, prefix_cache=probe)
        entry_bytes = probe.nbytes
        assert entry_bytes > 0

        cache = PrefixCache(capacity=16, max_bytes=int(2.5 * entry_bytes))
        for seed in range(3):
            prompt = _prompts(tiny_config.vocab_size, (8,), seed=seed)[0]
            generate(tiny_model, prompt, config, prefix_cache=cache)
        assert len(cache) == 2
        assert cache.nbytes <= cache.max_bytes
        assert cache.stats.evictions == 1

    def test_max_bytes_retains_newest_entry(self, tiny_model, tiny_config):
        config = GenerationConfig(max_new_tokens=2)
        cache = PrefixCache(capacity=16, max_bytes=1)  # smaller than any entry
        prompt = _prompts(tiny_config.vocab_size, (8,), seed=0)[0]
        generate(tiny_model, prompt, config, prefix_cache=cache)
        assert len(cache) == 1  # a lone oversized entry still caches

    def test_weight_change_invalidates_cache(self, tiny_model, tiny_config):
        prompt = _prompts(tiny_config.vocab_size, (10,), seed=11)[0]
        config = GenerationConfig(max_new_tokens=5)
        cache = PrefixCache(capacity=4)
        generate(tiny_model, prompt, config, prefix_cache=cache)
        assert len(cache) == 1

        state = tiny_model.state_dict()
        tiny_model.load_state_dict({k: v + 0.05 for k, v in state.items()})
        [fresh] = uncached_reference(tiny_model, [prompt], config)  # new weights
        synced = generate(tiny_model, prompt, config, prefix_cache=cache)
        assert list(synced) == list(fresh)
        assert cache.stats.invalidations == 1

    def test_weight_change_invalidates_cache_batched(self, tiny_model, tiny_config):
        prompts = _prompts(tiny_config.vocab_size, (10, 10, 6), seed=12)
        prompts[1] = prompts[0].copy()
        config = GenerationConfig(max_new_tokens=5)
        cache = PrefixCache(capacity=8)
        generate_batch(tiny_model, prompts, config, prefix_cache=cache)

        state = tiny_model.state_dict()
        tiny_model.load_state_dict({k: v + 0.05 for k, v in state.items()})
        fresh = uncached_reference(tiny_model, prompts, config)
        synced = generate_batch(tiny_model, prompts, config, prefix_cache=cache)
        _assert_rows_equal(synced, fresh)
        assert cache.stats.invalidations == 1


class TestMaskSafety:
    def test_cached_masks_are_read_only(self):
        for mask in (rect_attention_mask(8, 8, 4), rect_attention_mask(1, 8, 4, 7)):
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0, 0] = 1.0


class TestWiring:
    def test_predict_many_matches_sequential(self, fitted_zigong, german_examples):
        from repro.eval.harness import make_eval_samples
        from repro.datasets import make_german

        samples = make_eval_samples(make_german(n=30, seed=1))[:8]
        classifier = fitted_zigong.classifier("parity")
        sequential = [classifier.predict(s) for s in samples]
        batched = classifier.predict_many(samples)
        assert [p.label for p in batched] == [p.label for p in sequential]
        for got, want in zip(batched, sequential):
            assert got.score == pytest.approx(want.score, abs=1e-6)

    def test_generate_answer_batch_matches_sequential(self, fitted_zigong, german_examples):
        prompts = [e.prompt for e in german_examples[:6]]
        classifier = fitted_zigong.classifier("batch-answers")
        assert classifier.generate_answer_batch(prompts) == [
            classifier.generate_answer(p) for p in prompts
        ]
        assert classifier.generate_answer_batch([]) == []

    def test_zigong_classifier_memoized(self, fitted_zigong):
        assert fitted_zigong.classifier("memo") is fitted_zigong.classifier("memo")

    def test_evaluate_generative_batched_path(self, fitted_zigong, german_examples):
        from repro.eval.generative import evaluate_generative

        classifier = fitted_zigong.classifier("generative")
        examples = german_examples[:8]
        choices = tuple(sorted({e.answer for e in examples}))
        sequential = evaluate_generative(classifier.generate_answer, examples, choices)
        batched = evaluate_generative(
            classifier.generate_answer, examples, choices,
            generate_batch_fn=classifier.generate_answer_batch,
        )
        assert batched.accuracy == sequential.accuracy
        assert batched.miss == sequential.miss
        assert batched.confusion == sequential.confusion

    def test_evaluate_generative_rejects_short_batch(self, german_examples):
        from repro.errors import EvaluationError
        from repro.eval.generative import evaluate_generative

        examples = german_examples[:4]
        choices = tuple(sorted({e.answer for e in examples}))
        with pytest.raises(EvaluationError, match="generate_batch_fn"):
            evaluate_generative(
                lambda p: "", examples, choices,
                generate_batch_fn=lambda prompts: [""],
            )

    def test_prefix_counters_reach_obs(self, tiny_model, tiny_config):
        from repro.obs import Observability

        obs = Observability.create()
        cache = PrefixCache(capacity=4, obs=obs)
        prompts = _prompts(tiny_config.vocab_size, (8, 8), seed=9)
        prompts[1] = prompts[0].copy()
        config = GenerationConfig(max_new_tokens=3)
        generate_batch(tiny_model, prompts, config, prefix_cache=cache, obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["generation.prefix_hits"] == cache.stats.hits
        assert counters["generation.prefix_misses"] == cache.stats.misses
        assert counters["generation.prefill_tokens_saved"] == cache.stats.tokens_saved
        assert counters["generation.prefill_tokens"] > 0

class TestTokenAccounting:
    """Regression: the first sampled token counts toward throughput.

    ``generate_batch`` used to increment ``generation.tokens_generated``
    only inside the decode loop, so the token sampled from the prefill
    logits — one per row — was invisible to the counter, and rows
    retiring at the prefill (``max_new_tokens == 1`` or an immediate
    stop token) reported zero generated tokens.
    """

    def test_counter_includes_prefill_sampled_token(self, tiny_model, tiny_config):
        from repro.obs import Observability

        obs = Observability.create()
        prompts = _prompts(tiny_config.vocab_size, (5, 7, 9), seed=3)
        outputs = generate_batch(
            tiny_model, prompts, GenerationConfig(max_new_tokens=4), obs=obs
        )
        total = sum(len(row) for row in outputs)
        assert obs.metrics.counter("generation.tokens_generated").value == total

    def test_max_new_tokens_one_counts_and_retires(self, tiny_model, tiny_config):
        from repro.obs import Observability

        obs = Observability.create()
        prompts = _prompts(tiny_config.vocab_size, (5, 7, 9), seed=3)
        outputs = generate_batch(
            tiny_model, prompts, GenerationConfig(max_new_tokens=1), obs=obs
        )
        assert [len(row) for row in outputs] == [1, 1, 1]
        assert obs.metrics.counter("generation.tokens_generated").value == 3
        # Parity with the reference still holds at the boundary.
        _assert_rows_equal(
            outputs, uncached_reference(tiny_model, prompts, GenerationConfig(max_new_tokens=1))
        )
