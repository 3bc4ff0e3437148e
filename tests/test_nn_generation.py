"""Decoding tests: greedy determinism, stop tokens, logits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn import GenerationConfig, generate, next_token_logits


class TestGenerationConfig:
    def test_defaults(self):
        config = GenerationConfig()
        assert (config.max_new_tokens, config.stop_tokens, config.use_cache) == (16, (), True)

    @pytest.mark.parametrize("kwargs", [{"max_new_tokens": 0}])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            GenerationConfig(**kwargs)


class TestGenerate:
    def test_greedy_deterministic(self, tiny_model):
        prompt = np.array([1, 2, 3])
        a = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=6))
        b = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=6))
        assert a == b
        assert len(a) == 6

    def test_stop_token_halts(self, tiny_model):
        prompt = np.array([1, 2, 3])
        greedy = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=8))
        first = greedy[0]
        stopped = generate(
            tiny_model, prompt, GenerationConfig(max_new_tokens=8, stop_tokens=(first,))
        )
        assert stopped == [first]

    def test_long_prompt_truncated_not_crash(self, tiny_model, tiny_config):
        prompt = np.ones(tiny_config.max_seq_len + 10, dtype=np.int64)
        out = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=2))
        assert len(out) == 2

    def test_generation_builds_no_graph(self, tiny_model):
        generate(tiny_model, np.array([1, 2]), GenerationConfig(max_new_tokens=2))
        assert all(p.grad is None for p in tiny_model.parameters())


class TestNextTokenLogits:
    def test_equals_the_no_grad_forward(self, tiny_model):
        from repro.tensor import no_grad

        prompt = np.array([4, 5, 6, 7])
        logits = next_token_logits(tiny_model, prompt)
        with no_grad():
            expected = tiny_model(prompt[None, :]).data[0, -1]
        np.testing.assert_array_equal(logits, expected)

    def test_shape(self, tiny_model, tiny_config):
        logits = next_token_logits(tiny_model, np.array([1, 2, 3]))
        assert logits.shape == (tiny_config.vocab_size,)

    def test_greedy_consistency(self, tiny_model):
        """argmax of next_token_logits equals the first greedy token."""
        prompt = np.array([4, 5, 6])
        logits = next_token_logits(tiny_model, prompt)
        greedy = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=1))
        assert int(logits.argmax()) == greedy[0]
