"""Decoding tests: greedy determinism, stop tokens, sampling, logits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn import GenerationConfig, MistralTiny, generate, next_token_logits


class TestGenerationConfig:
    def test_defaults(self):
        config = GenerationConfig()
        assert config.temperature == 0.0

    @pytest.mark.parametrize(
        "kwargs", [{"max_new_tokens": 0}, {"temperature": -1.0}, {"top_k": 0}]
    )
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

    def test_sampling_seeded(self, tiny_model):
        prompt = np.array([1, 2, 3])
        config = GenerationConfig(max_new_tokens=6, temperature=1.0, seed=42)
        assert generate(tiny_model, prompt, config) == generate(tiny_model, prompt, config)

    def test_sampling_differs_across_seeds(self, tiny_model):
        prompt = np.array([1, 2, 3])
        outs = {
            tuple(generate(tiny_model, prompt, GenerationConfig(max_new_tokens=8, temperature=2.0, seed=s)))
            for s in range(5)
        }
        assert len(outs) > 1

    def test_top_k_restricts_support(self, tiny_model, tiny_config):
        prompt = np.array([1, 2, 3])
        logits = next_token_logits(tiny_model, prompt)
        top2 = set(np.argsort(logits)[-2:])
        for seed in range(10):
            config = GenerationConfig(max_new_tokens=1, temperature=1.5, top_k=2, seed=seed)
            token = generate(tiny_model, prompt, config)[0]
            assert token in top2

    def test_long_prompt_truncated_not_crash(self, tiny_model, tiny_config):
        prompt = np.ones(tiny_config.max_seq_len + 10, dtype=np.int64)
        out = generate(tiny_model, prompt, GenerationConfig(max_new_tokens=2))
        assert len(out) == 2

    def test_restores_training_mode(self, tiny_model):
        tiny_model.train()
        generate(tiny_model, np.array([1, 2]), GenerationConfig(max_new_tokens=1))
        assert tiny_model.training

    def test_generation_builds_no_graph(self, tiny_model):
        generate(tiny_model, np.array([1, 2]), GenerationConfig(max_new_tokens=2))
        assert all(p.grad is None for p in tiny_model.parameters())


def _forbid_mode_flips(monkeypatch):
    from repro.nn import Module

    def flip(self):
        raise AssertionError("train()/eval() must not be called")

    monkeypatch.setattr(Module, "train", flip)
    monkeypatch.setattr(Module, "eval", flip)


class TestNextTokenLogits:
    def test_leaves_training_mode_alone(self, tiny_config, monkeypatch):
        """Scores with the eval-mode forward without flipping any module's mode."""
        from dataclasses import replace

        from repro.tensor import no_grad

        model = MistralTiny(replace(tiny_config, dropout=0.5), rng=0)  # training mode
        prompt = np.array([4, 5, 6, 7])
        _forbid_mode_flips(monkeypatch)
        logits = next_token_logits(model, prompt)
        monkeypatch.undo()
        assert model.training and all(m.training for _, m in model.named_children())
        model.eval()
        with no_grad():
            expected = model(prompt[None, :]).data[0, -1]
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
