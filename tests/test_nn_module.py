"""Module / Parameter system tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.nn import Linear, MistralTiny, Module, ModuleList, Parameter


class Toy(Module):
    def __init__(self):
        super().__init__()
        self.fc = Linear(4, 3, rng=0)
        self.blocks = ModuleList([Linear(3, 3, rng=1), Linear(3, 2, rng=2)])
        self.scale = Parameter(np.ones(2, dtype=np.float32))

    def forward(self, x):
        x = self.fc(x)
        for block in self.blocks:
            x = block(x)
        return x * self.scale


class TestTraversal:
    def test_named_parameters_paths(self):
        names = {name for name, _ in Toy().named_parameters()}
        assert "fc.weight" in names
        assert "fc.bias" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names
        assert "scale" in names

    def test_parameter_count(self):
        toy = Toy()
        expected = (3 * 4 + 3) + (3 * 3 + 3) + (2 * 3 + 2) + 2
        assert toy.num_parameters() == expected

    def test_trainable_only_count(self):
        toy = Toy()
        toy.fc.weight.requires_grad = False
        assert toy.num_parameters(trainable_only=True) == toy.num_parameters() - 12

    def test_modulelist_len_and_getitem(self):
        toy = Toy()
        assert len(toy.blocks) == 2
        assert isinstance(toy.blocks[0], Linear)


class TestModes:
    def test_zero_grad_clears_all(self):
        toy = Toy()
        x = np.random.default_rng(0).normal(size=(2, 4)).astype(np.float32)
        from repro.tensor import Tensor

        toy(Tensor(x)).sum().backward()
        assert any(p.grad is not None for p in toy.parameters())
        toy.zero_grad()
        assert all(p.grad is None for p in toy.parameters())


class TestWeightVersion:
    def test_load_state_dict_bumps(self):
        toy = Toy()
        v0 = toy.weight_version
        toy.load_state_dict(toy.state_dict())
        assert toy.weight_version == v0 + 1

    def test_manual_bump(self):
        toy = Toy()
        toy.bump_weight_version()
        toy.bump_weight_version()
        assert toy.weight_version == 2


class TestStateDict:
    def test_roundtrip(self):
        a, b = Toy(), Toy()
        b.fc.weight.data += 1.0
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(b.fc.weight.data, a.fc.weight.data)

    def test_state_dict_is_a_copy(self):
        toy = Toy()
        state = toy.state_dict()
        state["fc.weight"] += 100.0
        assert toy.fc.weight.data.max() < 50.0

    def test_strict_missing_key_raises(self):
        toy = Toy()
        state = toy.state_dict()
        del state["scale"]
        with pytest.raises(CheckpointError):
            toy.load_state_dict(state)

    def test_strict_unexpected_key_raises(self):
        toy = Toy()
        state = toy.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(CheckpointError):
            toy.load_state_dict(state)

    def test_non_strict_partial_load(self):
        toy = Toy()
        original_scale = toy.scale.data.copy()
        toy.load_state_dict({"fc.bias": np.full(3, 9.0, dtype=np.float32)}, strict=False)
        np.testing.assert_allclose(toy.fc.bias.data, np.full(3, 9.0))
        np.testing.assert_allclose(toy.scale.data, original_scale)

    def test_shape_mismatch_raises(self):
        toy = Toy()
        state = toy.state_dict()
        state["scale"] = np.zeros(5)
        with pytest.raises(CheckpointError):
            toy.load_state_dict(state)

    def test_mistral_state_dict_covers_all_blocks(self, tiny_config):
        model = MistralTiny(tiny_config, rng=0)
        keys = set(model.state_dict())
        assert any(k.startswith("blocks.0.attn") for k in keys)
        assert any(k.startswith("blocks.1.ffn") for k in keys)
        assert "tok_embed.weight" in keys
