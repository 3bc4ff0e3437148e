"""LoRA tests: init identity, merge, freezing, injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.lora import (
    LoRAConfig,
    LoRALinear,
    apply_lora,
    iter_lora_modules,
    merge_lora,
    trainable_parameter_fraction,
)
from repro.nn import Linear, MistralTiny
from repro.tensor import Tensor


class TestLoRAConfig:
    def test_paper_defaults(self):
        config = LoRAConfig()
        assert config.rank == 8
        assert config.alpha == 16.0
        assert config.target_modules == ("wq", "wk", "wv")
        assert config.scaling == 2.0

    @pytest.mark.parametrize("kwargs", [{"rank": 0}, {"alpha": -1}, {"target_modules": ()}])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            LoRAConfig(**kwargs)


class TestLoRALinear:
    def _pair(self, rank=4):
        base = Linear(8, 6, bias=False, rng=0)
        adapter = LoRALinear(base, LoRAConfig(rank=rank, alpha=8, target_modules=("x",)), rng=1)
        return base, adapter

    def test_starts_identical_to_base(self):
        base, adapter = self._pair()
        x = Tensor(np.random.default_rng(0).normal(size=(3, 8)).astype(np.float32))
        np.testing.assert_allclose(adapter(x).numpy(), base(x).numpy(), atol=1e-6)

    def test_diverges_after_update(self):
        base, adapter = self._pair()
        adapter.lora_b.data += 0.1
        x = Tensor(np.ones((1, 8), dtype=np.float32))
        assert np.abs(adapter(x).numpy() - base(x).numpy()).max() > 1e-3

    def test_base_frozen_adapters_trainable(self):
        _, adapter = self._pair()
        assert not adapter.base.weight.requires_grad
        assert adapter.lora_a.requires_grad
        assert adapter.lora_b.requires_grad

    def test_merge_preserves_function(self):
        _, adapter = self._pair()
        adapter.lora_b.data = np.random.default_rng(2).normal(size=adapter.lora_b.shape).astype(np.float32)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 8)).astype(np.float32))
        before = adapter(x).numpy().copy()
        adapter.merge()
        assert adapter.merged
        np.testing.assert_allclose(adapter(x).numpy(), before, atol=1e-5)

    def test_merge_idempotent(self):
        _, adapter = self._pair()
        adapter.lora_b.data += 0.5
        adapter.merge()
        w = adapter.base.weight.data.copy()
        adapter.merge()
        np.testing.assert_allclose(adapter.base.weight.data, w)

    def test_delta_weight_shape(self):
        _, adapter = self._pair(rank=3)
        assert adapter.delta_weight().shape == (6, 8)


class TestInjection:
    def test_apply_targets_qkv(self, tiny_config):
        model = MistralTiny(tiny_config, rng=0)
        adapters = apply_lora(model, LoRAConfig(rank=2, alpha=4, train_embeddings=False), rng=0)
        assert len(adapters) == tiny_config.n_layers * 3
        for block in model.blocks:
            assert isinstance(block.attn.wq, LoRALinear)
            assert isinstance(block.attn.wk, LoRALinear)
            assert isinstance(block.attn.wv, LoRALinear)
            assert isinstance(block.attn.wo, Linear)  # not a target

    def test_forward_unchanged_right_after_injection(self, tiny_config, token_batch):
        model = MistralTiny(tiny_config, rng=0)
        before = model(token_batch).numpy().copy()
        apply_lora(model, LoRAConfig(rank=2, alpha=4), rng=0)
        np.testing.assert_allclose(model(token_batch).numpy(), before, atol=1e-5)

    def test_only_adapters_and_embeddings_trainable(self, tiny_config):
        model = MistralTiny(tiny_config, rng=0)
        apply_lora(model, LoRAConfig(rank=2, alpha=4, train_embeddings=True), rng=0)
        trainable = {n for n, p in model.named_parameters() if p.requires_grad}
        assert all(("lora_" in n) or ("tok_embed" in n) for n in trainable)

    def test_train_embeddings_false_freezes_embeddings(self, tiny_config):
        model = MistralTiny(tiny_config, rng=0)
        apply_lora(model, LoRAConfig(rank=2, alpha=4, train_embeddings=False), rng=0)
        assert not model.tok_embed.weight.requires_grad

    def test_fraction_small(self, tiny_config):
        model = MistralTiny(tiny_config, rng=0)
        apply_lora(model, LoRAConfig(rank=2, alpha=4, train_embeddings=False), rng=0)
        assert trainable_parameter_fraction(model) < 0.2

    def test_no_match_raises(self, tiny_config):
        model = MistralTiny(tiny_config, rng=0)
        with pytest.raises(ConfigError):
            apply_lora(model, LoRAConfig(target_modules=("nonexistent",)))

    def test_iter_and_bulk_merge(self, tiny_config, token_batch):
        model = MistralTiny(tiny_config, rng=0)
        apply_lora(model, LoRAConfig(rank=2, alpha=4), rng=0)
        for adapter in iter_lora_modules(model):
            adapter.lora_b.data += 0.05
        before = model(token_batch).numpy().copy()
        count = merge_lora(model)
        assert count == tiny_config.n_layers * 3
        np.testing.assert_allclose(model(token_batch).numpy(), before, atol=1e-4)

    def test_inject_and_merge_bump_weight_version(self, tiny_config):
        model = MistralTiny(tiny_config, rng=0)
        v0 = model.weight_version
        apply_lora(model, LoRAConfig(rank=2, alpha=4), rng=0)
        assert model.weight_version == v0 + 1
        merge_lora(model)
        assert model.weight_version == v0 + 2

    def test_gradients_flow_through_adapters(self, tiny_config, token_batch):
        model = MistralTiny(tiny_config, rng=0)
        adapters = apply_lora(model, LoRAConfig(rank=2, alpha=4), rng=0)
        model.loss(token_batch).backward()
        for adapter in adapters:
            assert adapter.lora_a.grad is not None
            assert adapter.base.weight.grad is None
