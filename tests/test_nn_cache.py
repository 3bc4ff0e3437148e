"""KV-cache incremental decoding tests: exactness vs full re-forward."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import (
    GenerationConfig,
    KVCache,
    LayerKVCache,
    MistralTiny,
    generate,
    rect_attention_mask,
)
from repro.tensor import no_grad


class TestLayerKVCache:
    def _kv(self, t, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(1, 2, t, 4)).astype(np.float32)

    def test_append_grows(self):
        cache = LayerKVCache()
        cache.append(self._kv(3), self._kv(3, 1))
        k, v = cache.append(self._kv(2, 2), self._kv(2, 3))
        assert k.shape[2] == 5
        assert len(cache) == 5

    def test_zeros_is_filled_through_its_views(self):
        k, v = self._kv(3), self._kv(3, 1)
        cache = LayerKVCache.zeros(1, 2, 3, 4, np.float32)
        k_view, v_view = cache.views()
        np.testing.assert_array_equal(k_view, 0.0)
        k_view[...] = k
        v_view[...] = v
        copied = LayerKVCache.from_arrays(k, v)
        for grown in (cache, copied):
            grown.append(self._kv(2, 2), self._kv(2, 3))
        assert len(cache) == 5
        for ours, theirs in zip(cache.views(), copied.views()):
            np.testing.assert_array_equal(ours, theirs)

    def test_shape_mismatch_raises(self):
        cache = LayerKVCache()
        with pytest.raises(ShapeError):
            cache.append(self._kv(2), self._kv(3))

    def test_incompatible_append_raises(self):
        cache = LayerKVCache()
        cache.append(self._kv(2), self._kv(2))
        bad = np.zeros((1, 3, 2, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            cache.append(bad, bad)


class TestKVCache:
    def test_per_layer(self):
        cache = KVCache(3)
        assert len(cache) == 3
        assert cache[0] is not cache[1]

    def test_invalid_layers(self):
        with pytest.raises(ShapeError):
            KVCache(0)


class TestRectMask:
    def test_single_query_over_prefix(self):
        mask = rect_attention_mask(1, 6, None, q_offset=5)
        assert (mask == 0).all()  # causal: position 5 sees keys 0..5

    def test_window_with_offsets(self):
        mask = rect_attention_mask(1, 6, 2, q_offset=5)
        # keys at positions 0..5; window 2 allows 4 and 5.
        np.testing.assert_array_equal(mask[0] == 0, [False] * 4 + [True, True])


class TestCachedForwardExactness:
    def test_incremental_matches_full_forward(self, tiny_model):
        rng = np.random.default_rng(0)
        ids = rng.integers(5, 60, size=12)
        with no_grad():
            full = tiny_model.forward(ids[None, :]).data
            cache = tiny_model.make_cache()
            out_prefill = tiny_model.forward(ids[None, :6], cache=cache).data
            outs = [out_prefill]
            for t in range(6, 12):
                outs.append(tiny_model.forward(ids[None, t : t + 1], cache=cache).data)
        stitched = np.concatenate(outs, axis=1)
        np.testing.assert_allclose(stitched, full, atol=1e-4)

    def test_token_by_token_matches(self, tiny_model):
        rng = np.random.default_rng(1)
        ids = rng.integers(5, 60, size=8)
        with no_grad():
            full = tiny_model.forward(ids[None, :]).data
            cache = tiny_model.make_cache()
            last = []
            for t in range(8):
                out = tiny_model.forward(ids[None, t : t + 1], cache=cache).data
                last.append(out[0, -1])
        np.testing.assert_allclose(np.stack(last), full[0], atol=1e-4)

    @pytest.mark.parametrize("splits", [[24], [4, 20], [10, 1, 13]])
    def test_chunked_prefill_across_window_matches_full_forward(self, tiny_model, splits):
        # Each split crosses the 16-token window: a chunk's early queries
        # still attend to keys older than the window of its last one.
        ids = np.random.default_rng(2).integers(5, 60, size=sum(splits))
        with no_grad():
            full = tiny_model.forward(ids[None, :]).data
            cache = tiny_model.make_cache()
            outs, start = [], 0
            for size in splits:
                outs.append(tiny_model.forward(ids[None, start : start + size], cache=cache).data)
                start += size
        np.testing.assert_allclose(np.concatenate(outs, axis=1), full, atol=1e-4)

    def test_cache_respects_max_seq_len(self, tiny_model, tiny_config):
        cache = tiny_model.make_cache()
        ids = np.zeros((1, tiny_config.max_seq_len), dtype=np.int64)
        with no_grad():
            tiny_model.forward(ids, cache=cache)
            with pytest.raises(ShapeError):
                tiny_model.forward(np.zeros((1, 1), dtype=np.int64), cache=cache)


class TestCachedGeneration:
    def test_cached_equals_uncached_greedy(self, tiny_model):
        prompt = np.array([3, 9, 27, 4, 11])
        cached = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=8, use_cache=True))
        plain = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=8, use_cache=False))
        assert cached == plain

    def test_cached_equals_uncached_sampled(self, tiny_model):
        prompt = np.array([3, 9, 27])
        config_a = GenerationConfig(max_new_tokens=6, temperature=1.0, seed=5, use_cache=True)
        config_b = GenerationConfig(max_new_tokens=6, temperature=1.0, seed=5, use_cache=False)
        assert generate(tiny_model, prompt, config_a) == generate(tiny_model, prompt, config_b)

    def test_cached_stop_token(self, tiny_model):
        prompt = np.array([1, 2, 3])
        greedy = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=8))
        first = greedy[0]
        stopped = generate(
            tiny_model, prompt, GenerationConfig(max_new_tokens=8, stop_tokens=(first,))
        )
        assert stopped == [first]

    def test_long_prompt_truncated(self, tiny_model, tiny_config):
        prompt = np.ones(tiny_config.max_seq_len + 5, dtype=np.int64)
        out = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=3))
        assert len(out) == 3

    def test_long_prompt_cached_equals_uncached(self, tiny_model, tiny_config):
        # Both paths must left-truncate to the same prompt budget; a
        # longer-than-budget prompt used to condition the uncached loop
        # on extra context the cached path never saw.
        rng = np.random.default_rng(3)
        prompt = rng.integers(5, tiny_config.vocab_size, size=tiny_config.max_seq_len + 5)
        cached = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=4, use_cache=True))
        plain = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=4, use_cache=False))
        assert cached == plain
